// Package mlp is a from-scratch feed-forward neural network with Adam
// training — the substrate of MLIMP's performance predictor ("The
// regressors have two hidden layers with 16 and 8 nodes", Section III-E).
// float64 throughout: the predictor runs on the host CPU, not in memory.
//
// The serving front end refits the predictor online, so TrainStep is a
// hot path. Each layer keeps its weights and Adam moments in flat
// row-major slices, TrainStep fuses backpropagation with the Adam update
// in one top-down pass over per-Net scratch buffers, and neither
// TrainStep nor Fit allocates. The fused kernel performs the same
// floating-point operations, on the same operands and in the same order,
// as a separate backward pass followed by a separate Adam pass, so the
// trained weights are bit-identical to that textbook formulation.
// Forward never writes the Net: a trained net may be read concurrently.
package mlp

import (
	"fmt"
	"math"
	"math/rand"
)

// Net is a fully connected feed-forward network with tanh hidden
// activations and a linear output layer.
type Net struct {
	layers []layer

	// Adam step count and bias corrections c1 = 1-beta1^step and
	// c2 = 1-beta2^step. Once a correction rounds to exactly 1 it stays
	// there (TestBiasCorrectionShortcut), so advance stops calling
	// math.Pow for it and update skips the division by it.
	step   int
	c1, c2 float64

	perm []int // Fit's shuffle order, reused across epochs and calls
}

// layer is one weight layer: in inputs, out outputs.
type layer struct {
	in, out   int
	w, mW, vW []float64 // [out*in], row-major: weight (o, i) at o*in+i
	b, mB, vB []float64 // [out]

	// TrainStep scratch: this layer's activations, and the loss
	// gradient with respect to its pre-activations.
	act, delta []float64
}

// New builds a network with the given layer sizes (inputs first, output
// last), Xavier-initialised from rng.
func New(rng *rand.Rand, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("mlp: layer sizes must be positive")
		}
	}
	n := &Net{}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		L := newLayer(in, out)
		scale := math.Sqrt(2.0 / float64(in+out))
		for k := range L.w {
			L.w[k] = rng.NormFloat64() * scale
		}
		n.layers = append(n.layers, L)
	}
	return n
}

// newLayer allocates a zeroed layer, its parameters, moments and
// scratch carved from one backing array.
func newLayer(in, out int) layer {
	buf := make([]float64, 3*out*in+5*out)
	next := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	return layer{
		in: in, out: out,
		w: next(out * in), mW: next(out * in), vW: next(out * in),
		b: next(out), mB: next(out), vB: next(out),
		act: next(out), delta: next(out),
	}
}

// Clone returns a deep copy of the network, including its Adam state,
// so online fine-tuning of the copy (predictor retraining in the
// serving front end) never perturbs the original. The copy gets its
// own scratch buffers.
func (n *Net) Clone() *Net {
	c := &Net{step: n.step, c1: n.c1, c2: n.c2}
	for _, L := range n.layers {
		C := newLayer(L.in, L.out)
		copy(C.w, L.w)
		copy(C.mW, L.mW)
		copy(C.vW, L.vW)
		copy(C.b, L.b)
		copy(C.mB, L.mB)
		copy(C.vB, L.vB)
		c.layers = append(c.layers, C)
	}
	return c
}

// maxStackWidth bounds the hidden-layer width Forward keeps on the
// stack; wider nets fall back to heap scratch.
const maxStackWidth = 32

// Forward runs inference and returns the output vector. It reads the
// Net and writes only stack scratch and the returned slice, so
// concurrent Forward calls on one Net are safe.
func (n *Net) Forward(x []float64) []float64 {
	n.checkInput(x)
	var stack [2 * maxStackWidth]float64
	a, b := stack[:maxStackWidth], stack[maxStackWidth:]
	if w := n.maxHidden(); w > maxStackWidth {
		a, b = make([]float64, w), make([]float64, w)
	}
	cur := x
	last := len(n.layers) - 1
	for l := 0; l < last; l++ {
		L := &n.layers[l]
		L.forward(cur, a[:L.out], true)
		cur, a, b = a[:L.out], b, a
	}
	out := make([]float64, n.layers[last].out)
	n.layers[last].forward(cur, out, false)
	return out
}

// maxHidden returns the widest hidden layer.
func (n *Net) maxHidden() int {
	w := 0
	for l := range n.layers[:len(n.layers)-1] {
		w = max(w, n.layers[l].out)
	}
	return w
}

func (n *Net) checkInput(x []float64) {
	if in := n.layers[0].in; len(x) != in {
		panic(fmt.Sprintf("mlp: input size %d, want %d", len(x), in))
	}
}

// forward computes dst[o] = bias[o] + sum_i w[o,i]*src[i], summed in
// input order, through tanh when hidden.
func (L *layer) forward(src, dst []float64, hidden bool) {
	for o := range dst {
		s := L.b[o]
		row := L.w[o*L.in : (o+1)*L.in]
		for i, v := range src {
			s += row[i] * v
		}
		if hidden {
			s = math.Tanh(s)
		}
		dst[o] = s
	}
}

// Adam hyperparameters.
const (
	beta1 = 0.9
	beta2 = 0.999
	eps   = 1e-8
)

// advance counts one Adam step and refreshes the bias corrections,
// calling math.Pow only while a correction still differs from 1.
func (n *Net) advance() {
	n.step++
	if n.c1 != 1 {
		n.c1 = 1 - math.Pow(beta1, float64(n.step))
	}
	if n.c2 != 1 {
		n.c2 = 1 - math.Pow(beta2, float64(n.step))
	}
}

// adamStep carries one step's learning rate and bias corrections by
// value, so the update loop keeps them in registers instead of
// reloading Net fields after every parameter store.
type adamStep struct{ lr, c1, c2 float64 }

// update returns parameter p and its moments m, v after one Adam step
// with gradient g. A division by a correction of exactly 1 is skipped;
// it would return its operand unchanged.
func (a adamStep) update(p, m, v, g float64) (float64, float64, float64) {
	m = beta1*m + (1-beta1)*g
	v = beta2*v + (1-beta2)*g*g
	mHat, vHat := m, v
	if a.c1 != 1 {
		mHat = m / a.c1
	}
	if a.c2 != 1 {
		vHat = v / a.c2
	}
	return p - a.lr*mHat/(math.Sqrt(vHat)+eps), m, v
}

// TrainStep performs one Adam update on a single (x, y) pair with mean
// squared error loss and returns the sample loss before the update.
//
// The backward pass walks the layers from the top. For each weight it
// first propagates the weight's share of the delta to the layer below,
// using the weight before its update, then applies the Adam step. No
// later step reads a layer's weights once its delta has been
// propagated, so the fused pass computes exactly what a full backward
// pass followed by a separate update pass would.
func (n *Net) TrainStep(x, y []float64, lr float64) float64 {
	n.checkInput(x)
	top := &n.layers[len(n.layers)-1]
	if len(y) != top.out {
		panic("mlp: target size mismatch")
	}
	cur := x
	for l := range n.layers {
		L := &n.layers[l]
		L.forward(cur, L.act, L != top)
		cur = L.act
	}

	// Output delta (linear layer, MSE): 2(out - y)/len(y).
	var loss float64
	for i, out := range top.act {
		d := out - y[i]
		top.delta[i] = 2 * d / float64(len(y))
		loss += d * d
	}
	loss /= float64(len(y))

	n.advance()
	adam := adamStep{lr, n.c1, n.c2}
	for l := len(n.layers) - 1; l >= 0; l-- {
		L := &n.layers[l]
		in, below := x, []float64(nil)
		if l > 0 {
			in, below = n.layers[l-1].act, n.layers[l-1].delta
			clear(below)
		}
		for o, d := range L.delta {
			row := o * L.in
			w, mW, vW := L.w[row:row+L.in], L.mW[row:row+L.in], L.vW[row:row+L.in]
			for i, a := range in {
				if below != nil {
					below[i] += w[i] * d
				}
				w[i], mW[i], vW[i] = adam.update(w[i], mW[i], vW[i], d*a)
			}
			L.b[o], L.mB[o], L.vB[o] = adam.update(L.b[o], L.mB[o], L.vB[o], d)
		}
		// The layer below is tanh-activated: scale by its derivative.
		if below != nil {
			for i, a := range in {
				below[i] *= 1 - a*a
			}
		}
	}
	return loss
}

// Fit trains on the dataset for the given number of epochs with
// per-sample Adam updates in a shuffled order, returning the final mean
// epoch loss. Each epoch's order is the permutation rng.Perm would
// return, drawn into a buffer the Net reuses.
func (n *Net) Fit(rng *rand.Rand, xs, ys [][]float64, epochs int, lr float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("mlp: bad training set")
	}
	if cap(n.perm) < len(xs) {
		n.perm = make([]int, len(xs))
	}
	perm := n.perm[:len(xs)]
	var last float64
	for e := 0; e < epochs; e++ {
		shuffle(rng, perm)
		var sum float64
		for _, i := range perm {
			sum += n.TrainStep(xs[i], ys[i], lr)
		}
		last = sum / float64(len(xs))
	}
	return last
}

// shuffle fills m with a permutation of 0..len(m)-1, making the same
// rng.Intn calls as rand.(*Rand).Perm and yielding the same order. Every
// element is written before it is read, so m's prior contents do not
// matter.
func shuffle(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}
