package policy

import (
	"fmt"

	"retail/internal/splitmix"
)

// Dispatcher is the cross-node routing rule of the cluster layer: given n
// nodes and a load probe, pick the node an arriving request is steered
// to. It is the second dispatch axis the ROADMAP calls for — JSQ (above)
// spreads requests across the *workers of one node*; a Dispatcher spreads
// them across the *nodes of a fleet*, upstream of every per-node DVFS
// policy. Keeping it here, not in the cluster runtime, keeps the rule
// clock-agnostic: implementations see only integer loads, never a clock,
// an engine or a server, so the same placement stream is reproducible
// from any runtime that feeds it the same load sequence.
//
// Contract:
//
//   - Pick is called once per arriving request with n ≥ 1 and a load
//     function valid for indices [0, n). It must return an index in that
//     range.
//   - Implementations are deterministic: any randomness comes from a
//     seed supplied at construction, so two dispatchers built with the
//     same seed and fed the same (n, load) sequence produce identical
//     placement streams.
//   - Implementations are not goroutine-safe; the caller serializes
//     (the cluster simulator is single-threaded per cell).
type Dispatcher interface {
	// Name identifies the rule in experiment output ("round-robin", …).
	Name() string
	// Pick returns the target node index for one arriving request.
	Pick(n int, load func(int) int) int
}

// DispatcherNames lists the built-in dispatchers in canonical report
// order.
func DispatcherNames() []string {
	return []string{"round-robin", "least-loaded", "power-of-two", "global-jsq"}
}

// NewDispatcher constructs a built-in dispatcher by name. The seed only
// matters for the randomized rules (power-of-two); deterministic rules
// ignore it.
func NewDispatcher(name string, seed int64) (Dispatcher, error) {
	return NewDispatcherWithWeights(name, seed, nil)
}

// NewDispatcherWithWeights constructs a dispatcher by name, additionally
// accepting the "weighted" rule whose per-node capacity weights come
// from Params.Dispatch.Weights. The built-in rules ignore the weights.
func NewDispatcherWithWeights(name string, seed int64, weights []float64) (Dispatcher, error) {
	switch name {
	case "round-robin":
		return &RoundRobinDispatch{}, nil
	case "least-loaded":
		return &LeastLoadedDispatch{}, nil
	case "power-of-two":
		return NewPowerOfTwoDispatch(seed), nil
	case "global-jsq":
		return &GlobalJSQDispatch{}, nil
	case "weighted":
		return NewWeightedDispatch(weights), nil
	}
	return nil, fmt.Errorf("policy: unknown dispatcher %q (have %v)", name, DispatcherNames())
}

// RoundRobinDispatch cycles through nodes regardless of occupancy — the
// load-oblivious baseline every load-aware rule is measured against. The
// zero value is ready to use.
type RoundRobinDispatch struct {
	next int
}

func (d *RoundRobinDispatch) Name() string { return "round-robin" }

func (d *RoundRobinDispatch) Pick(n int, _ func(int) int) int {
	if d.next >= n {
		d.next = 0
	}
	idx := d.next
	d.next = (idx + 1) % n
	return idx
}

// LeastLoadedDispatch scans every node and takes the least loaded, ties
// to the lowest index. This is the fixed-tie-break variant of global JSQ:
// under symmetric load the static tie-break parks traffic on the low
// indices (exactly the bias the PR-2 JSQ fix removed inside a node),
// which is why both variants exist as separate axes — the difference is
// measurable in per-node imbalance. The zero value is ready to use.
type LeastLoadedDispatch struct{}

func (LeastLoadedDispatch) Name() string { return "least-loaded" }

func (LeastLoadedDispatch) Pick(n int, load func(int) int) int {
	bestIdx, bestLoad := 0, load(0)
	for i := 1; i < n; i++ {
		if l := load(i); l < bestLoad {
			bestIdx, bestLoad = i, l
		}
	}
	return bestIdx
}

// PowerOfTwoDispatch samples two distinct nodes and routes to the less
// loaded one (ties to the first sample) — the classic
// power-of-two-choices rule: nearly JSQ's tail behavior at O(1) probe
// cost, the only rule here a front-end could run without global state.
// Randomness comes from a private splitmix64 stream, so the placement
// sequence is a pure function of the construction seed.
type PowerOfTwoDispatch struct {
	rng splitmix.Stream
}

// NewPowerOfTwoDispatch returns the rule with its own deterministic
// sampling stream.
func NewPowerOfTwoDispatch(seed int64) *PowerOfTwoDispatch {
	return &PowerOfTwoDispatch{rng: splitmix.NewStream(uint64(seed))}
}

func (d *PowerOfTwoDispatch) Name() string { return "power-of-two" }

func (d *PowerOfTwoDispatch) Pick(n int, load func(int) int) int {
	if n == 1 {
		return 0
	}
	i := int(d.rng.Next() % uint64(n))
	j := int(d.rng.Next() % uint64(n-1))
	if j >= i {
		j++ // j is drawn from the n-1 indices excluding i
	}
	if load(j) < load(i) {
		return j
	}
	return i
}

// WeightedDispatch is capacity-weighted least-loaded routing: it picks
// the node minimizing (load+1)/weight, ties to the lowest index. Equal
// weights reduce to LeastLoadedDispatch; a node with twice the weight
// absorbs roughly twice the standing queue before losing a tie — the
// rule for heterogeneous fleets where nodes differ in worker count or
// clock ceiling. Fully deterministic (no seed), so placement streams
// replay byte-identically.
type WeightedDispatch struct {
	weights []float64
}

// NewWeightedDispatch copies the per-node weight table. Missing or
// non-positive entries behave as weight 1, so a short (or nil) table
// degrades toward plain least-loaded rather than failing.
func NewWeightedDispatch(weights []float64) *WeightedDispatch {
	return &WeightedDispatch{weights: append([]float64(nil), weights...)}
}

func (d *WeightedDispatch) Name() string { return "weighted" }

func (d *WeightedDispatch) weight(i int) float64 {
	if i < len(d.weights) && d.weights[i] > 0 {
		return d.weights[i]
	}
	return 1
}

func (d *WeightedDispatch) Pick(n int, load func(int) int) int {
	bestIdx := 0
	bestCost := (float64(load(0)) + 1) / d.weight(0)
	for i := 1; i < n; i++ {
		if cost := (float64(load(i)) + 1) / d.weight(i); cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	return bestIdx
}

// GlobalJSQDispatch is join-shortest-queue across nodes with the same
// rotating tie-break the per-node worker dispatch uses (see JSQ): the
// scan starts just past the previously chosen node, so symmetric-load
// ties spread around the fleet instead of parking on a fixed subset. The
// zero value is ready to use.
type GlobalJSQDispatch struct {
	jsq JSQ
}

func (GlobalJSQDispatch) Name() string { return "global-jsq" }

func (d *GlobalJSQDispatch) Pick(n int, load func(int) int) int {
	return d.jsq.Pick(n, load)
}
