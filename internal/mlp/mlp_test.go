package mlp

import (
	"math"
	"math/rand"
	"testing"
)

func TestConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{3, 16, 8, 1}
	n := New(rng, sizes...)
	if len(n.layers) != 3 {
		t.Fatalf("%d weight layers, want 3", len(n.layers))
	}
	for l, L := range n.layers {
		in, out := sizes[l], sizes[l+1]
		if L.in != in || L.out != out {
			t.Errorf("layer %d is %dx%d, want %dx%d", l, L.in, L.out, in, out)
		}
		for name, s := range map[string][]float64{"w": L.w, "mW": L.mW, "vW": L.vW} {
			if len(s) != out*in {
				t.Errorf("layer %d: len(%s) = %d, want %d", l, name, len(s), out*in)
			}
		}
		for name, s := range map[string][]float64{"b": L.b, "mB": L.mB, "vB": L.vB, "act": L.act, "delta": L.delta} {
			if len(s) != out {
				t.Errorf("layer %d: len(%s) = %d, want %d", l, name, len(s), out)
			}
		}
	}
	out := n.Forward([]float64{1, 2, 3})
	if len(out) != 1 || math.IsNaN(out[0]) {
		t.Errorf("Forward = %v", out)
	}
}

func TestConstructionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, f := range []func(){
		func() { New(rng, 3) },
		func() { New(rng, 3, 0, 1) },
		func() { New(rng, 2, 1).Forward([]float64{1, 2, 3}) },
		func() { New(rng, 2, 1).TrainStep([]float64{1, 2}, []float64{1, 2}, 0.01) },
		func() { New(rng, 2, 1).Fit(rng, nil, nil, 1, 0.01) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 2, 16, 8, 1)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{0.5*a - 0.3*b + 0.1})
	}
	loss := n.Fit(rng, xs, ys, 200, 1e-3)
	if loss > 1e-3 {
		t.Errorf("final loss = %v, want < 1e-3", loss)
	}
	got := n.Forward([]float64{0.4, -0.2})[0]
	want := 0.5*0.4 - 0.3*-0.2 + 0.1
	if math.Abs(got-want) > 0.05 {
		t.Errorf("prediction %v, want %v", got, want)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	// The predictor's job is a non-linear regression (Section III-E);
	// the 16/8 architecture must fit a smooth nonlinearity.
	rng := rand.New(rand.NewSource(3))
	n := New(rng, 1, 16, 8, 1)
	var xs, ys [][]float64
	for i := 0; i < 300; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{math.Sin(x)})
	}
	loss := n.Fit(rng, xs, ys, 300, 2e-3)
	if loss > 5e-3 {
		t.Errorf("final loss = %v", loss)
	}
	for _, x := range []float64{-1.5, -0.5, 0.5, 1.5} {
		got := n.Forward([]float64{x})[0]
		if math.Abs(got-math.Sin(x)) > 0.15 {
			t.Errorf("sin(%v): got %v want %v", x, got, math.Sin(x))
		}
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(rng, 2, 8, 1)
	x, y := []float64{0.5, -0.5}, []float64{0.7}
	first := n.TrainStep(x, y, 1e-2)
	var last float64
	for i := 0; i < 100; i++ {
		last = n.TrainStep(x, y, 1e-2)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	build := func() []float64 {
		rng := rand.New(rand.NewSource(7))
		n := New(rng, 2, 16, 8, 1)
		xs := [][]float64{{0.1, 0.2}, {0.3, -0.4}}
		ys := [][]float64{{0.5}, {-0.1}}
		n.Fit(rng, xs, ys, 50, 1e-3)
		return n.Forward([]float64{0.2, 0.2})
	}
	a, b := build(), build()
	if a[0] != b[0] {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

func TestMultiOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(rng, 2, 12, 2)
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{a + b, a - b})
	}
	n.Fit(rng, xs, ys, 150, 2e-3)
	out := n.Forward([]float64{0.3, 0.6})
	if math.Abs(out[0]-0.9) > 0.1 || math.Abs(out[1]+0.3) > 0.1 {
		t.Errorf("multi-output prediction = %v", out)
	}
}

// TestBiasCorrectionShortcut: advance stops calling math.Pow once a
// bias correction rounds to exactly 1, which is only sound if 1-beta^t
// then stays 1 for every later t. For every t in [1, 1e6] the kernel's
// c1 and c2 must equal 1-math.Pow(beta, t) bit for bit, and both
// corrections must saturate within that range, so both shortcuts run.
func TestBiasCorrectionShortcut(t *testing.T) {
	n := &Net{}
	sat1, sat2 := 0, 0
	for step := 1; step <= 1_000_000; step++ {
		n.advance()
		want1 := 1 - math.Pow(beta1, float64(step))
		want2 := 1 - math.Pow(beta2, float64(step))
		if math.Float64bits(n.c1) != math.Float64bits(want1) || math.Float64bits(n.c2) != math.Float64bits(want2) {
			t.Fatalf("t=%d: c1, c2 = %v, %v, want %v, %v", step, n.c1, n.c2, want1, want2)
		}
		if sat1 == 0 && n.c1 == 1 {
			sat1 = step
		}
		if sat2 == 0 && n.c2 == 1 {
			sat2 = step
		}
	}
	if sat1 == 0 || sat2 == 0 {
		t.Fatalf("corrections never saturated: c1 at %d, c2 at %d", sat1, sat2)
	}
	t.Logf("c1 saturates at t=%d, c2 at t=%d", sat1, sat2)
}

// refNet is the textbook formulation the fused kernel must reproduce
// bit for bit: nested [layer][out][in] weights, a full backward pass
// that accumulates every moment, then a separate bias-corrected Adam
// pass that always calls math.Pow and divides.
type refNet struct {
	w, mW, vW [][][]float64
	b, mB, vB [][]float64
	step      int
}

func newRefNet(n *Net) *refNet {
	r := &refNet{}
	for _, L := range n.layers {
		var w, mW, vW [][]float64
		for o := 0; o < L.out; o++ {
			w = append(w, append([]float64(nil), L.w[o*L.in:(o+1)*L.in]...))
			mW = append(mW, make([]float64, L.in))
			vW = append(vW, make([]float64, L.in))
		}
		r.w, r.mW, r.vW = append(r.w, w), append(r.mW, mW), append(r.vW, vW)
		r.b = append(r.b, append([]float64(nil), L.b...))
		r.mB, r.vB = append(r.mB, make([]float64, L.out)), append(r.vB, make([]float64, L.out))
	}
	return r
}

// forward returns every layer's activations, inputs first.
func (r *refNet) forward(x []float64) [][]float64 {
	acts := [][]float64{x}
	for l := range r.w {
		next := make([]float64, len(r.w[l]))
		for o := range next {
			s := r.b[l][o]
			for i, v := range acts[l] {
				s += r.w[l][o][i] * v
			}
			if l < len(r.w)-1 {
				s = math.Tanh(s)
			}
			next[o] = s
		}
		acts = append(acts, next)
	}
	return acts
}

func (r *refNet) trainStep(x, y []float64, lr float64) float64 {
	acts := r.forward(x)
	out := acts[len(acts)-1]
	delta := make([]float64, len(out))
	var loss float64
	for i := range out {
		d := out[i] - y[i]
		delta[i] = 2 * d / float64(len(out))
		loss += d * d
	}
	loss /= float64(len(out))
	r.step++
	for l := len(r.w) - 1; l >= 0; l-- {
		nextDelta := make([]float64, len(acts[l]))
		for o, row := range r.w[l] {
			d := delta[o]
			for i := range row {
				nextDelta[i] += row[i] * d
				g := d * acts[l][i]
				r.mW[l][o][i] = beta1*r.mW[l][o][i] + (1-beta1)*g
				r.vW[l][o][i] = beta2*r.vW[l][o][i] + (1-beta2)*g*g
			}
			r.mB[l][o] = beta1*r.mB[l][o] + (1-beta1)*d
			r.vB[l][o] = beta2*r.vB[l][o] + (1-beta2)*d*d
		}
		for i, a := range acts[l] {
			nextDelta[i] *= 1 - a*a
		}
		delta = nextDelta
	}
	c1 := 1 - math.Pow(beta1, float64(r.step))
	c2 := 1 - math.Pow(beta2, float64(r.step))
	for l := range r.w {
		for o := range r.w[l] {
			for i := range r.w[l][o] {
				r.w[l][o][i] -= lr * (r.mW[l][o][i] / c1) / (math.Sqrt(r.vW[l][o][i]/c2) + eps)
			}
			r.b[l][o] -= lr * (r.mB[l][o] / c1) / (math.Sqrt(r.vB[l][o]/c2) + eps)
		}
	}
	return loss
}

// TestTrainStepMatchesReference: the fused kernel's losses, trained
// weights and Forward outputs equal the textbook formulation's bit for
// bit, on shapes with no hidden layer, several outputs, three hidden
// layers and a hidden layer too wide for Forward's stack scratch, over
// enough steps to run past the beta1 bias-correction saturation.
func TestTrainStepMatchesReference(t *testing.T) {
	for _, sizes := range [][]int{{2, 1}, {4, 16, 8, 1}, {2, 12, 2}, {3, 5, 7, 4, 2}, {3, 40, 2}} {
		rng := rand.New(rand.NewSource(int64(len(sizes))))
		n := New(rng, sizes...)
		r := newRefNet(n)
		x := make([]float64, sizes[0])
		y := make([]float64, sizes[len(sizes)-1])
		for step := 1; step <= 600; step++ {
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			for i := range y {
				y[i] = rng.Float64()
			}
			got, want := n.TrainStep(x, y, 1e-2), r.trainStep(x, y, 1e-2)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v step %d: loss %v, reference %v", sizes, step, got, want)
			}
		}
		for l, L := range n.layers {
			for o := 0; o < L.out; o++ {
				for i := 0; i < L.in; i++ {
					if g, w := L.w[o*L.in+i], r.w[l][o][i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%v: w[%d][%d][%d] = %v, reference %v", sizes, l, o, i, g, w)
					}
				}
				if g, w := L.b[o], r.b[l][o]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v: b[%d][%d] = %v, reference %v", sizes, l, o, g, w)
				}
			}
		}
		acts := r.forward(x)
		for i, g := range n.Forward(x) {
			if w := acts[len(acts)-1][i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v: Forward[%d] = %v, reference %v", sizes, i, g, w)
			}
		}
	}
}

// TestShuffleMatchesPerm: Fit's in-place shuffle yields rand.Perm's
// order and leaves the rng in the same state, whatever the reused
// buffer held before.
func TestShuffleMatchesPerm(t *testing.T) {
	a, b := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	buf := make([]int, 64)
	for _, size := range []int{1, 2, 7, 64, 33} {
		for i := range buf {
			buf[i] = -1 - i // stale contents
		}
		want := a.Perm(size)
		shuffle(b, buf[:size])
		for i, v := range want {
			if buf[i] != v {
				t.Fatalf("size %d: shuffle = %v, Perm = %v", size, buf[:size], want)
			}
		}
	}
	if a.Int63() != b.Int63() {
		t.Error("shuffle and Perm left the rng in different states")
	}
}

// TestTrainingAllocatesNothing: TrainStep and a warmed-up Fit run on
// per-Net scratch, and Forward allocates only the slice it returns.
func TestTrainingAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := New(rng, 4, 16, 8, 1)
	xs := [][]float64{{0.1, 0.2, 0.3, 0.4}, {-0.4, 0.3, -0.2, 0.1}, {0.5, 0.5, -0.5, 0}}
	ys := [][]float64{{0.3}, {-0.1}, {0.2}}
	if a := testing.AllocsPerRun(100, func() { n.TrainStep(xs[0], ys[0], 1e-3) }); a != 0 {
		t.Errorf("TrainStep: %v allocs, want 0", a)
	}
	n.Fit(rng, xs, ys, 1, 1e-3) // sizes the shuffle buffer
	if a := testing.AllocsPerRun(100, func() { n.Fit(rng, xs, ys, 2, 1e-3) }); a != 0 {
		t.Errorf("Fit: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { n.Forward(xs[0]) }); a != 1 {
		t.Errorf("Forward: %v allocs, want 1", a)
	}
}
