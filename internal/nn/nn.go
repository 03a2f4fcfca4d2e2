// Package nn implements the feed-forward neural networks the paper uses as
// ReTail's foil (§V-B): Gemini's 5×128 ReLU MLP with an MSE loss ("NN-G")
// and the per-application hand-tuned variant ("NN-T"). The point of the
// comparison is that NNs buy little accuracy over linear regression on
// these workloads while costing orders of magnitude more training and
// inference time. That gap is intrinsic — 66 k parameters against a
// handful — and must not be an artifact, so the implementation is not
// wasteful: training is batch-major, allocation-free and spread over
// GOMAXPROCS goroutines (train.go), a forward pass keeps four sums in
// flight, and LR still wins by three (inference) to five (training) orders
// of magnitude.
//
// Contract: speed never changes a result. Every sum is taken over the same
// terms in the same order as the plain per-sample loops kept in ref_test.go,
// so weights, Adam state and predictions are bit-identical to theirs at any
// GOMAXPROCS (TestFitBitIdenticalToReference), and no simulated number
// downstream of a Gemini prediction depends on the host's core count.
//
// A trained Network is shared read-only by parallel sweep cells and fleet
// nodes, so it holds no inference state: Predict writes only to the
// caller's Scratch.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Config describes an MLP.
type Config struct {
	InputDim     int
	HiddenLayers int     // number of hidden layers
	Neurons      int     // neurons per hidden layer
	Epochs       int     // full passes over the training set
	BatchSize    int     // minibatch size
	LearningRate float64 // Adam step size; 0 → 1e-3
	Seed         int64   // weight-init and shuffle seed
}

// GeminiConfig returns the NN structure Gemini proposes: 5 hidden layers of
// 128 neurons, ReLU activations, MSE loss.
func GeminiConfig(inputDim int) Config {
	return Config{InputDim: inputDim, HiddenLayers: 5, Neurons: 128, Epochs: 60, BatchSize: 32, Seed: 1}
}

// TunedConfig returns a small hand-tuned structure in the spirit of the
// paper's NN-T (e.g. one 16-neuron hidden layer for Xapian).
func TunedConfig(inputDim, hiddenLayers, neurons, epochs, batch int) Config {
	return Config{InputDim: inputDim, HiddenLayers: hiddenLayers, Neurons: neurons, Epochs: epochs, BatchSize: batch, Seed: 1}
}

type layer struct {
	in, out int
	w       []float64 // out×in, row-major
	b       []float64 // out
	// Adam state
	mw, vw []float64
	mb, vb []float64
}

func newLayer(in, out int, rng *rand.Rand) *layer {
	l := &layer{
		in: in, out: out,
		w: make([]float64, in*out), b: make([]float64, out),
		mw: make([]float64, in*out), vw: make([]float64, in*out),
		mb: make([]float64, out), vb: make([]float64, out),
	}
	// He initialization suits ReLU.
	std := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * std
	}
	return l
}

// row returns neuron o's weights.
func (l *layer) row(o int) []float64 { return l.w[o*l.in : (o+1)*l.in] }

// Network is a trained (or in-training) MLP with standardized inputs and
// output. The zero value is unusable; call New.
type Network struct {
	cfg    Config
	layers []*layer

	inMean, inStd []float64
	outMean       float64
	outStd        float64
	trained       bool

	// TrainDuration records the wall-clock cost of the last Fit call; the
	// Table IV experiment reports it against linear regression's.
	TrainDuration time.Duration
}

// New builds an untrained network.
func New(cfg Config) (*Network, error) {
	if cfg.InputDim <= 0 {
		return nil, errors.New("nn: InputDim must be positive")
	}
	if cfg.HiddenLayers < 0 || cfg.Neurons <= 0 && cfg.HiddenLayers > 0 {
		return nil, fmt.Errorf("nn: invalid hidden shape (%d layers × %d neurons)", cfg.HiddenLayers, cfg.Neurons)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 1e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	prev := cfg.InputDim
	for i := 0; i < cfg.HiddenLayers; i++ {
		n.layers = append(n.layers, newLayer(prev, cfg.Neurons, rng))
		prev = cfg.Neurons
	}
	n.layers = append(n.layers, newLayer(prev, 1, rng))
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// ParamCount returns the number of trainable parameters.
func (n *Network) ParamCount() int {
	c := 0
	for _, l := range n.layers {
		c += len(l.w) + len(l.b)
	}
	return c
}

func (n *Network) standardize(x []float64, dst []float64) {
	for i := range x {
		sd := n.inStd[i]
		if sd == 0 {
			sd = 1
		}
		dst[i] = (x[i] - n.inMean[i]) / sd
	}
}

// Scratch is the working memory of one forward pass: the two activation
// buffers consecutive layers alternate between. It belongs to the caller —
// a trained Network is shared read-only by concurrently running simulations,
// so nothing a prediction writes may live in it. The zero value is ready and
// reusable across networks; a Scratch must not be used concurrently.
type Scratch struct{ cur, next []float64 }

// dot4 returns sₖ + Σᵢ a[i]·bₖ[i] for four vectors at once. Each sum is
// accumulated in index order in its own register, so it is the float the
// one-at-a-time loop produces while the four chains overlap in the pipeline.
func dot4(a, b0, b1, b2, b3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// forward runs one standardized sample held in cur (a Scratch buffer, as is
// next), four neurons per pass over the input; a layer's last block repeats
// its final neuron rather than branch on a remainder.
func (n *Network) forward(cur, next []float64) float64 {
	for li, l := range n.layers {
		next = next[:l.out]
		last := l.out - 1
		for o := 0; o <= last; o += 4 {
			o1, o2, o3 := min(o+1, last), min(o+2, last), min(o+3, last)
			s0, s1, s2, s3 := dot4(cur, l.row(o), l.row(o1), l.row(o2), l.row(o3), l.b[o], l.b[o1], l.b[o2], l.b[o3])
			if li < len(n.layers)-1 { // ReLU on hidden layers
				s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
			}
			next[o], next[o1], next[o2], next[o3] = s0, s1, s2, s3
		}
		cur, next = next, cur[:cap(cur)]
	}
	return cur[0]
}

// Predict returns the network's output for one feature vector. It allocates
// only while s grows to the network's width.
func (n *Network) Predict(s *Scratch, x []float64) (float64, error) {
	if !n.trained {
		return 0, errors.New("nn: predict before Fit")
	}
	if len(x) != n.cfg.InputDim {
		return 0, fmt.Errorf("nn: got %d features, want %d", len(x), n.cfg.InputDim)
	}
	if w := max(n.cfg.InputDim, n.cfg.Neurons); cap(s.cur) < w || cap(s.next) < w {
		s.cur, s.next = make([]float64, w), make([]float64, w)
	}
	cur := s.cur[:len(x)]
	n.standardize(x, cur)
	return n.forward(cur, s.next)*n.outStd + n.outMean, nil
}

// MustPredict is Predict for callers that have already validated inputs.
func (n *Network) MustPredict(s *Scratch, x []float64) float64 {
	v, err := n.Predict(s, x)
	if err != nil {
		panic(err)
	}
	return v
}
