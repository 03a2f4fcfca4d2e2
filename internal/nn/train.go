package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Fit trains the network on (features, targets) using minibatch Adam with
// an MSE loss, standardizing inputs and target internally. It records the
// wall-clock training time in TrainDuration.
func (n *Network) Fit(features [][]float64, targets []float64) error {
	if len(features) == 0 {
		return errors.New("nn: no training samples")
	}
	if len(features) != len(targets) {
		return errors.New("nn: sample/target count mismatch")
	}
	d := n.cfg.InputDim
	for i, f := range features {
		if len(f) != d {
			return fmt.Errorf("nn: sample %d has %d features, want %d", i, len(f), d)
		}
	}
	start := time.Now()
	n.inMean, n.inStd = make([]float64, d), make([]float64, d)
	for j := range n.inMean {
		n.inMean[j], n.inStd[j] = meanStd(len(features), func(i int) float64 { return features[i][j] })
	}
	n.outMean, n.outStd = meanStd(len(targets), func(i int) float64 { return targets[i] })
	if n.outStd == 0 {
		n.outStd = 1
	}

	xs := make([]float64, len(features)*d)
	ys := make([]float64, len(targets))
	for i, f := range features {
		n.standardize(f, xs[i*d:(i+1)*d])
		ys[i] = (targets[i] - n.outMean) / n.outStd
	}

	t := newTrainer(n, xs, ys)
	defer t.stop()
	rng := rand.New(rand.NewSource(n.cfg.Seed + 17))
	idx := make([]int, len(ys))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for off := 0; off < len(idx); off += n.cfg.BatchSize {
			t.step(idx[off:min(off+n.cfg.BatchSize, len(idx))])
		}
	}
	n.trained = true
	n.TrainDuration = time.Since(start)
	return nil
}

// meanStd returns the mean and the population standard deviation of the n
// values at(0)…at(n-1), both summed in index order.
func meanStd(n int, at func(int) float64) (mean, std float64) {
	for i := 0; i < n; i++ {
		mean += at(i)
	}
	mean /= float64(n)
	for i := 0; i < n; i++ {
		dv := at(i) - mean
		std += dv * dv
	}
	return mean, math.Sqrt(std / float64(n))
}

// trainer is one Fit call's preallocated state. A minibatch moves through
// it layer by layer rather than sample by sample, so a weight row is read
// once per four samples instead of once per sample and nothing is allocated
// after construction. A step has two phases, each cut into contiguous
// shares along an axis no sum runs over, so a share owns every float it
// writes and GOMAXPROCS goroutines can take one each: first the forward
// pass and the delta propagation, by sample; then the gradient sums and the
// Adam update, by neuron. Every sum still takes its terms in the per-sample
// loop's order (input index within a dot product, neuron order within a
// propagated delta, batch order within a gradient), which makes the trained
// weights bit-identical to that loop's at any worker count.
type trainer struct {
	n      *Network
	xs, ys []float64 // standardized training set, xs row-major
	batch  []int     // the current step's sample indices

	// Sample-major, one row per sample of the batch: act[li] is layer li's
	// input (act[len(layers)] the predictions), delta[li] dLoss/d(its
	// output).
	act, delta [][]float64
	gw, gb     [][]float64 // batch gradient sums; adam re-zeroes them

	adamStep     int
	bs, bc1, bc2 float64 // this step's batch size and Adam bias corrections

	parts   int       // shares per phase = goroutines, the caller included
	tasks   chan task // sized to one phase's sends, so run never blocks
	pending sync.WaitGroup
	exited  sync.WaitGroup
}

// task is share number part of a phase.
type task struct {
	phase func(t *trainer, part int)
	part  int
}

// share returns the part-th of t.parts contiguous shares [lo, hi) of n items.
func (t *trainer) share(part, n int) (lo, hi int) {
	return n * part / t.parts, n * (part + 1) / t.parts
}

// minHandoffMACs is the step size (multiply-adds per pass over a full batch)
// below which waking other goroutines costs more than it saves, so the fit
// runs on the caller's alone: hand-tuned NN-T shapes fall under it, Gemini's
// 5×128 far over.
const minHandoffMACs = 1 << 16

func newTrainer(n *Network, xs, ys []float64) *trainer {
	b := min(n.cfg.BatchSize, len(ys))
	t := &trainer{n: n, xs: xs, ys: ys, parts: runtime.GOMAXPROCS(0)}
	if b*n.ParamCount() < minHandoffMACs {
		t.parts = 1
	}
	for _, l := range n.layers {
		t.act = append(t.act, make([]float64, b*l.in))
		t.delta = append(t.delta, make([]float64, b*l.out))
		t.gw = append(t.gw, make([]float64, len(l.w)))
		t.gb = append(t.gb, make([]float64, len(l.b)))
	}
	t.act = append(t.act, make([]float64, b))
	t.tasks = make(chan task, t.parts-1)
	t.exited.Add(t.parts - 1)
	for i := 1; i < t.parts; i++ {
		go func() {
			defer t.exited.Done()
			for k := range t.tasks {
				k.phase(t, k.part)
				t.pending.Done()
			}
		}()
	}
	return t
}

// stop ends the worker goroutines and waits for them.
func (t *trainer) stop() {
	close(t.tasks)
	t.exited.Wait()
}

// run executes one phase and returns when every share of it is done.
func (t *trainer) run(phase func(*trainer, int)) {
	t.pending.Add(t.parts - 1)
	for p := 1; p < t.parts; p++ {
		t.tasks <- task{phase, p}
	}
	phase(t, 0)
	t.pending.Wait()
}

// step trains on one minibatch.
func (t *trainer) step(batch []int) {
	t.batch = batch
	t.adamStep++
	const beta1, beta2 = 0.9, 0.999
	t.bs = float64(len(batch))
	t.bc1 = 1 - math.Pow(beta1, float64(t.adamStep))
	t.bc2 = 1 - math.Pow(beta2, float64(t.adamStep))
	t.run((*trainer).perSample)
	t.run((*trainer).perNeuron)
}

// perSample is a step's first phase for one share of the batch: load the
// samples, run them forward, and carry the loss gradient back down to
// every layer's output.
func (t *trainer) perSample(part int) {
	lo, hi := t.share(part, len(t.batch))
	layers := t.n.layers
	d := layers[0].in
	for s := lo; s < hi; s++ {
		copy(t.act[0][s*d:(s+1)*d], t.xs[t.batch[s]*d:])
	}
	for li := range layers {
		t.forward(li, lo, hi)
	}
	top := len(layers) - 1
	for s := lo; s < hi; s++ { // dL/dpred for 0.5·MSE per sample
		t.delta[top][s] = t.act[top+1][s] - t.ys[t.batch[s]]
	}
	for li := top; li > 0; li-- {
		t.propagate(li, lo, hi)
	}
}

// perNeuron is a step's second phase for one share of every layer's
// neurons: sum their gradients over the batch and take the Adam step.
func (t *trainer) perNeuron(part int) {
	for li, l := range t.n.layers {
		lo, hi := t.share(part, l.out)
		t.gradient(li, lo, hi)
		t.adam(l.w[lo*l.in:hi*l.in], l.mw[lo*l.in:], l.vw[lo*l.in:], t.gw[li][lo*l.in:])
		t.adam(l.b[lo:hi], l.mb[lo:], l.vb[lo:], t.gb[li][lo:])
	}
}

// forward computes layer li for samples [lo, hi), four samples per pass
// over a weight row; the last block repeats the final sample rather than
// branch on a remainder.
func (t *trainer) forward(li, lo, hi int) {
	l := t.n.layers[li]
	in, out := t.act[li], t.act[li+1]
	hidden := li < len(t.n.layers)-1
	last := hi - 1
	for o := 0; o < l.out; o++ {
		row, b := l.row(o), l.b[o]
		for s := lo; s <= last; s += 4 {
			s1, s2, s3 := min(s+1, last), min(s+2, last), min(s+3, last)
			v0, v1, v2, v3 := dot4(row, in[s*l.in:], in[s1*l.in:], in[s2*l.in:], in[s3*l.in:], b, b, b, b)
			if hidden { // ReLU
				v0, v1, v2, v3 = relu(v0), relu(v1), relu(v2), relu(v3)
			}
			out[s*l.out+o], out[s1*l.out+o], out[s2*l.out+o], out[s3*l.out+o] = v0, v1, v2, v3
		}
	}
}

// propagate computes, for samples [lo, hi), the deltas of the layer below
// li: each is the sum over li's neurons in ascending order, gated by the
// ReLU derivative through that layer's output.
func (t *trainer) propagate(li, lo, hi int) {
	l := t.n.layers[li]
	for s := lo; s < hi; s++ {
		nd := t.delta[li-1][s*l.in : (s+1)*l.in]
		clear(nd)
		accumulate(nd, t.delta[li][s*l.out:], 1, l.out, l.w)
		for i, v := range t.act[li][s*l.in : (s+1)*l.in] {
			if v <= 0 {
				nd[i] = 0
			}
		}
	}
}

// gradient adds the batch's contribution to the weight and bias gradients
// of neurons [lo, hi) of layer li, sample by sample in batch order.
func (t *trainer) gradient(li, lo, hi int) {
	l := t.n.layers[li]
	for o := lo; o < hi; o++ {
		for s := range t.batch {
			if dO := t.delta[li][s*l.out+o]; dO != 0 {
				t.gb[li][o] += dO
			}
		}
		accumulate(t.gw[li][o*l.in:(o+1)*l.in], t.delta[li][o:], l.out, len(t.batch), t.act[li])
	}
}

// accumulate adds d[k·stride]·vecs[k] to dst for k = 0…n-1 in that order,
// skipping zero factors (a ReLU-gated delta usually is one); vecs[k] is the
// k-th len(dst)-wide row of vecs. Four terms are folded per pass over dst,
// each element still summing them in order.
func accumulate(dst, d []float64, stride, n int, vecs []float64) {
	w := len(dst)
	var (
		f [4]float64
		v [4][]float64
		m int
	)
	for k := 0; k < n; k++ {
		if f[m] = d[k*stride]; f[m] == 0 {
			continue
		}
		v[m] = vecs[k*w : (k+1)*w]
		if m++; m == 4 {
			f0, f1, f2, f3, v0, v1, v2, v3 := f[0], f[1], f[2], f[3], v[0][:w], v[1][:w], v[2][:w], v[3][:w]
			for i, g := range dst {
				g += f0 * v0[i]
				g += f1 * v1[i]
				g += f2 * v2[i]
				g += f3 * v3[i]
				dst[i] = g
			}
			m = 0
		}
	}
	for k := 0; k < m; k++ {
		for i, x := range v[k] {
			dst[i] += f[k] * x
		}
	}
}

// adam applies one Adam update to the parameters w (moments m and v, which
// like sums may run longer than w) from their gradient sums, which it
// leaves zeroed for the next batch.
func (t *trainer) adam(w, m, v, sums []float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	lr := t.n.cfg.LearningRate
	m, v, sums = m[:len(w)], v[:len(w)], sums[:len(w)]
	for i := range w {
		g := sums[i] / t.bs
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		w[i] -= lr * (m[i] / t.bc1) / (math.Sqrt(v[i]/t.bc2) + eps)
	}
	clear(sums)
}
