package nn

// The per-sample trainer and forward pass exactly as they stood before the
// batch-major rewrite, kept as the oracle the bit-identity tests compare
// against. Do not optimize or tidy: every float here is the definition of
// the right answer.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// refForward runs one sample, storing pre-activation inputs per layer for
// backprop when acts is non-nil.
func (n *Network) refForward(x []float64, acts [][]float64) float64 {
	cur := x
	for li, l := range n.layers {
		next := make([]float64, l.out)
		for o := 0; o < l.out; o++ {
			s := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				s += row[i] * v
			}
			if li < len(n.layers)-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			next[o] = s
		}
		if acts != nil {
			acts[li] = cur
		}
		cur = next
	}
	return cur[0]
}

// refFit trains the network on (features, targets) using minibatch Adam with
// an MSE loss, standardizing inputs and target internally. It records the
// wall-clock training time in TrainDuration.
func (n *Network) refFit(features [][]float64, targets []float64) error {
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
	// Standardization statistics.
	n.inMean = make([]float64, d)
	n.inStd = make([]float64, d)
	for _, f := range features {
		for j, v := range f {
			n.inMean[j] += v
		}
	}
	for j := range n.inMean {
		n.inMean[j] /= float64(len(features))
	}
	for _, f := range features {
		for j, v := range f {
			dv := v - n.inMean[j]
			n.inStd[j] += dv * dv
		}
	}
	for j := range n.inStd {
		n.inStd[j] = math.Sqrt(n.inStd[j] / float64(len(features)))
	}
	n.outMean, n.outStd = 0, 0
	for _, t := range targets {
		n.outMean += t
	}
	n.outMean /= float64(len(targets))
	for _, t := range targets {
		dv := t - n.outMean
		n.outStd += dv * dv
	}
	n.outStd = math.Sqrt(n.outStd / float64(len(targets)))
	if n.outStd == 0 {
		n.outStd = 1
	}

	xs := make([][]float64, len(features))
	ys := make([]float64, len(targets))
	for i, f := range features {
		xs[i] = make([]float64, d)
		n.standardize(f, xs[i])
		ys[i] = (targets[i] - n.outMean) / n.outStd
	}

	rng := rand.New(rand.NewSource(n.cfg.Seed + 17))
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for off := 0; off < len(idx); off += n.cfg.BatchSize {
			end := off + n.cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[off:end]
			// Accumulate gradients over the batch.
			gw := make([][]float64, len(n.layers))
			gb := make([][]float64, len(n.layers))
			for li, l := range n.layers {
				gw[li] = make([]float64, len(l.w))
				gb[li] = make([]float64, len(l.b))
			}
			acts := make([][]float64, len(n.layers))
			for _, si := range batch {
				pred := n.refForward(xs[si], acts)
				// dL/dpred for 0.5·MSE per sample.
				delta := []float64{pred - ys[si]}
				for li := len(n.layers) - 1; li >= 0; li-- {
					l := n.layers[li]
					in := acts[li]
					nd := make([]float64, l.in)
					for o := 0; o < l.out; o++ {
						dO := delta[o]
						if dO == 0 {
							continue
						}
						row := l.w[o*l.in : (o+1)*l.in]
						gb[li][o] += dO
						grow := gw[li][o*l.in : (o+1)*l.in]
						for i, v := range in {
							grow[i] += dO * v
							nd[i] += dO * row[i]
						}
					}
					// ReLU derivative through the previous layer's output.
					if li > 0 {
						for i := range nd {
							if in[i] <= 0 {
								nd[i] = 0
							}
						}
					}
					delta = nd
				}
			}
			// Adam update.
			step++
			bs := float64(len(batch))
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			lr := n.cfg.LearningRate
			for li, l := range n.layers {
				for i := range l.w {
					g := gw[li][i] / bs
					l.mw[i] = beta1*l.mw[i] + (1-beta1)*g
					l.vw[i] = beta2*l.vw[i] + (1-beta2)*g*g
					l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + eps)
				}
				for i := range l.b {
					g := gb[li][i] / bs
					l.mb[i] = beta1*l.mb[i] + (1-beta1)*g
					l.vb[i] = beta2*l.vb[i] + (1-beta2)*g*g
					l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + eps)
				}
			}
		}
	}
	n.trained = true
	n.TrainDuration = time.Since(start)
	return nil
}

// refPredict is Predict over refForward.
func (n *Network) refPredict(x []float64) float64 {
	std := make([]float64, len(x))
	n.standardize(x, std)
	return n.refForward(std, nil)*n.outStd + n.outMean
}
