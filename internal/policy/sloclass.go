package policy

// Per-SLO-class QoS′ targets. A cohort spec maps each request to an SLO
// class (workload.Request.SLOClass indexes the spec's class table), and
// each class carries a QoS′ multiplier: "interactive" traffic can run
// against a tighter internal target than "batch" traffic sharing the
// same server, so Algorithm 1's frequency choice and the degradation
// ladder's shed decision differ by class — a decision dimension none of
// the paper's baselines has.
//
// Determinism contract: Apply is a single float64 multiply (or the
// identity when no targets are configured), and BOTH runtime adapters
// call this one function with the same operand order. The replay-parity
// check hashes the scaled QoS′ stream, so any adapter growing a private
// variant of this arithmetic breaks parity loudly.

// ClassTargets maps SLO-class indexes to QoS′ multipliers. The zero
// value (and any empty table) is the identity: every class sees the
// unscaled QoS′, which is exactly the single-class behavior all
// pre-existing goldens pin.
type ClassTargets struct {
	scales []float64
}

// NewClassTargets copies the per-class scale table (index = class).
func NewClassTargets(scales []float64) ClassTargets {
	if len(scales) == 0 {
		return ClassTargets{}
	}
	return ClassTargets{scales: append([]float64(nil), scales...)}
}

// Len returns the number of configured classes.
func (c ClassTargets) Len() int { return len(c.scales) }

// Apply scales a QoS′ value by the class's multiplier. The empty table
// and out-of-range classes return the input untouched — bit-identical,
// not merely equal, so single-class runs hash the same with or without
// the class plumbing compiled in.
func (c ClassTargets) Apply(class uint8, qosPrime Duration) Duration {
	if int(class) >= len(c.scales) {
		return qosPrime
	}
	return qosPrime * c.scales[class]
}

// ClassedPipeline is the optional Pipeline extension exposing each
// member's SLO class. Adapters running single-class workloads keep
// implementing plain Pipeline; HeadClass degrades to class 0 for them.
type ClassedPipeline interface {
	Pipeline
	// Class returns member i's SLO class index.
	Class(i int) uint8
}

// HeadClass returns the head member's SLO class, or 0 when the pipeline
// does not carry classes. Both adapters use it at the single point where
// the class enters the decision: scaling QoS′ before Alg1.
func HeadClass(p Pipeline) uint8 {
	if cp, ok := p.(ClassedPipeline); ok {
		return cp.Class(0)
	}
	return 0
}
