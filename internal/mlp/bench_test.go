package mlp

import (
	"math/rand"
	"testing"
)

// BenchmarkForward measures predictor inference at the paper's
// regressor shape (two hidden layers of 16 and 8, Section III-E) — the
// call the scheduler makes once per job dispatch, so its cost is pure
// overhead on every scheduling decision.
func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := New(rng, 8, 16, 8, 1)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

// BenchmarkRefit measures one online refit at the serving shape (four
// cycle features, hidden layers of 16 and 8): 10 epochs of per-sample
// Adam over 256 varied observations, the front end's observation
// window and retraining epochs. The targets carry noise, so the loss
// never reaches zero and the Adam moments stay in the normal float
// range however many refits run; a benchmark that repeats one sample
// drives them subnormal and times the resulting arithmetic stalls.
func BenchmarkRefit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := New(rng, 4, 16, 8, 1)
	xs := make([][]float64, 256)
	ys := make([][]float64, 256)
	for k := range xs {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64()
		}
		xs[k] = x
		ys[k] = []float64{0.5*x[0] - 0.3*x[1]*x[2] + 0.2*x[3] + 0.05*rng.NormFloat64()}
	}
	n.Fit(rng, xs, ys, 1, 1e-3) // sizes the shuffle buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Fit(rng, xs, ys, 10, 1e-3)
	}
}
