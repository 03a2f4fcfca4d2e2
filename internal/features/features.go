// Package features implements ReTail's automated feature selection (§IV):
// given an unfiltered list of candidate request/application features and N
// profiled request samples, it (1) rejects features whose values arrive too
// late during request processing to be useful for frequency adjustment,
// (2) ranks the rest by correlation degree — |Pearson ρ| for numerical
// features, η² for categorical ones — and (3) runs forward stepwise
// selection, adding features only while the combined correlation degree of
// the selected set keeps improving, which automatically skips redundant
// features.
package features

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"retail/internal/linalg"
	"retail/internal/stats"
	"retail/internal/workload"
)

// Dataset is the input of feature selection (§IV-A, Table III): N request
// samples with all M candidate feature values and the measured service
// time of each sample, profiled at a fixed frequency in isolation.
type Dataset struct {
	Specs   []workload.FeatureSpec
	X       [][]float64 // N×M candidate feature values
	Service []float64   // N measured service times (seconds)
}

// Validate checks dimensional consistency.
func (d Dataset) Validate() error {
	if len(d.Specs) == 0 {
		return errors.New("features: no candidate features")
	}
	if len(d.X) != len(d.Service) {
		return fmt.Errorf("features: %d samples but %d service times", len(d.X), len(d.Service))
	}
	if len(d.X) < 8 {
		return fmt.Errorf("features: %d samples is too few", len(d.X))
	}
	for i, row := range d.X {
		if len(row) != len(d.Specs) {
			return fmt.Errorf("features: sample %d has %d values, want %d", i, len(row), len(d.Specs))
		}
	}
	return nil
}

func (d Dataset) column(j int) []float64 {
	col := make([]float64, len(d.X))
	for i, row := range d.X {
		col[i] = row[j]
	}
	return col
}

func (d Dataset) categories(j int) []int {
	col := make([]int, len(d.X))
	for i, row := range d.X {
		col[i] = int(row[j])
	}
	return col
}

// RejectionReason explains why a candidate was excluded.
type RejectionReason string

const (
	RejectedLateness RejectionReason = "lateness above threshold"
	RejectedNoGain   RejectionReason = "no correlation-degree gain"
	RejectedWeak     RejectionReason = "individual correlation below floor"
)

// Rejection pairs a candidate index with the reason it was excluded.
type Rejection struct {
	Index  int
	Reason RejectionReason
}

// Step records one forward-selection iteration.
type Step struct {
	Added      int     // feature index added
	CombinedCD float64 // combined correlation degree after adding it
}

// Result is the outcome of feature selection.
type Result struct {
	// Selected holds indices into Specs, in selection order.
	Selected []int
	// IndividualCD holds each candidate's standalone correlation degree
	// (NaN for lateness-rejected candidates never scored).
	IndividualCD []float64
	// CombinedCD is the final selected set's correlation degree (0 when
	// nothing was selected — a "little or no variation" application).
	CombinedCD float64
	Rejected   []Rejection
	Steps      []Step
}

// Options tune the selection thresholds.
type Options struct {
	// LatenessThreshold rejects features obtainable only after this
	// fraction of service time (paper default 0.5).
	LatenessThreshold float64
	// MinGain is the combined-CD improvement required to add another
	// feature (avoids redundant features).
	MinGain float64
	// MinCD is the floor below which even the best single feature is not
	// worth selecting; the application is then treated as having a single
	// category with near-constant service time (Masstree, ImgDNN).
	MinCD float64
	// TryPairs enables the paper's §IV-C extension for interacting
	// features ("it can be supported by including pairs/groups of features
	// in the first two steps of feature selection"): when no single
	// candidate clears MinCD, pairs of candidates are scored jointly, so
	// relationships invisible to any one feature (the XOR example) can
	// still be selected. Off by default, as in the paper.
	TryPairs bool
}

// DefaultOptions returns the paper's thresholds.
func DefaultOptions() Options {
	return Options{LatenessThreshold: 0.5, MinGain: 0.01, MinCD: 0.15}
}

// Select runs the three-step selection pipeline on d.
func Select(d Dataset, opt Options) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if opt.LatenessThreshold <= 0 {
		opt.LatenessThreshold = 0.5
	}
	res := Result{IndividualCD: make([]float64, len(d.Specs))}
	for i := range res.IndividualCD {
		res.IndividualCD[i] = math.NaN()
	}

	// Step 1: lateness filter.
	var candidates []int
	for j, s := range d.Specs {
		if s.Lateness > opt.LatenessThreshold {
			res.Rejected = append(res.Rejected, Rejection{Index: j, Reason: RejectedLateness})
			continue
		}
		candidates = append(candidates, j)
	}

	// Step 2: individual correlation degrees.
	for _, j := range candidates {
		cd, err := individualCD(d, j)
		if err != nil {
			return Result{}, fmt.Errorf("features: scoring %q: %w", d.Specs[j].Name, err)
		}
		res.IndividualCD[j] = cd
	}
	sort.SliceStable(candidates, func(a, b int) bool {
		return res.IndividualCD[candidates[a]] > res.IndividualCD[candidates[b]]
	})

	// Step 3: forward stepwise selection.
	if len(candidates) == 0 || res.IndividualCD[candidates[0]] < opt.MinCD {
		// Optionally look for interacting pairs before giving up.
		if opt.TryPairs {
			if pair, cd := bestPair(d, candidates, opt.MinCD); pair != nil {
				res.Selected = pair
				res.CombinedCD = cd
				res.Steps = append(res.Steps,
					Step{Added: pair[0], CombinedCD: cd},
					Step{Added: pair[1], CombinedCD: cd})
				for _, j := range candidates {
					if !contains(pair, j) {
						res.Rejected = append(res.Rejected, Rejection{Index: j, Reason: RejectedNoGain})
					}
				}
				return res, nil
			}
		}
		for _, j := range candidates {
			res.Rejected = append(res.Rejected, Rejection{Index: j, Reason: RejectedWeak})
		}
		return res, nil // nothing predicts latency: constant-service app
	}
	selected := []int{candidates[0]}
	combined := CombinedCD(d, selected)
	res.Steps = append(res.Steps, Step{Added: candidates[0], CombinedCD: combined})
	remaining := append([]int(nil), candidates[1:]...)
	for len(remaining) > 0 {
		bestIdx, bestCD := -1, combined
		for pos, j := range remaining {
			cd := CombinedCD(d, append(append([]int(nil), selected...), j))
			if cd > bestCD {
				bestIdx, bestCD = pos, cd
			}
		}
		if bestIdx < 0 || bestCD-combined < opt.MinGain {
			break
		}
		j := remaining[bestIdx]
		selected = append(selected, j)
		combined = bestCD
		res.Steps = append(res.Steps, Step{Added: j, CombinedCD: combined})
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	for _, j := range candidates {
		if !contains(selected, j) {
			res.Rejected = append(res.Rejected, Rejection{Index: j, Reason: RejectedNoGain})
		}
	}
	res.Selected = selected
	res.CombinedCD = combined
	return res, nil
}

// bestPair scores every candidate pair jointly and returns the best one
// whose combined CD clears the floor, or nil.
func bestPair(d Dataset, candidates []int, minCD float64) ([]int, float64) {
	var best []int
	bestCD := minCD
	for a := 0; a < len(candidates); a++ {
		for b := a + 1; b < len(candidates); b++ {
			pair := []int{candidates[a], candidates[b]}
			if cd := CombinedCD(d, pair); cd > bestCD {
				best, bestCD = pair, cd
			}
		}
	}
	return best, bestCD
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func individualCD(d Dataset, j int) (float64, error) {
	if d.Specs[j].Kind == workload.Categorical {
		return stats.CorrelationRatio(d.categories(j), d.Service)
	}
	rho, err := stats.Pearson(d.column(j), d.Service)
	if err != nil {
		return 0, err
	}
	return math.Abs(rho), nil
}

// CombinedCD scores a feature subset as the multiple correlation
// coefficient R of the paper's model class fit on the dataset: samples are
// partitioned by the combination of selected categorical features, and
// within each combination an OLS regression over the selected numerical
// features (or the mean, when none) predicts service time. R generalizes
// both |ρ| (single numerical feature) and η (single categorical feature),
// and is unchanged by adding redundant features — the property stepwise
// selection relies on.
func CombinedCD(d Dataset, selected []int) float64 {
	var catIdx, numIdx []int
	for _, j := range selected {
		if d.Specs[j].Kind == workload.Categorical {
			catIdx = append(catIdx, j)
		} else {
			numIdx = append(numIdx, j)
		}
	}
	// Group rows by categorical combination.
	groups := map[string][]int{}
	for i := range d.X {
		key := comboKey(d.X[i], catIdx)
		groups[key] = append(groups[key], i)
	}
	pred := make([]float64, len(d.Service))
	for _, rows := range groups {
		fitGroup(d, rows, numIdx, pred)
	}
	r2, err := stats.R2(d.Service, pred)
	if err != nil || r2 < 0 {
		return 0
	}
	return math.Sqrt(r2)
}

func comboKey(row []float64, catIdx []int) string {
	if len(catIdx) == 0 {
		return ""
	}
	key := make([]byte, 0, len(catIdx)*4)
	for _, j := range catIdx {
		v := int(row[j])
		key = append(key, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(key)
}

// fitGroup writes predictions for the given rows into pred, using OLS over
// numIdx features when the group is large enough, else the group mean.
func fitGroup(d Dataset, rows []int, numIdx []int, pred []float64) {
	mean := 0.0
	for _, i := range rows {
		mean += d.Service[i]
	}
	mean /= float64(len(rows))
	if len(numIdx) == 0 || len(rows) < len(numIdx)+2 {
		for _, i := range rows {
			pred[i] = mean
		}
		return
	}
	feats := make([][]float64, len(rows))
	ys := make([]float64, len(rows))
	for k, i := range rows {
		f := make([]float64, len(numIdx))
		for a, j := range numIdx {
			f[a] = d.X[i][j]
		}
		feats[k] = f
		ys[k] = d.Service[i]
	}
	dm, err := linalg.DesignMatrix(feats)
	if err != nil {
		for _, i := range rows {
			pred[i] = mean
		}
		return
	}
	beta, err := linalg.OLS(dm, ys)
	if err != nil {
		for _, i := range rows {
			pred[i] = mean
		}
		return
	}
	out := dm.MulVec(beta)
	for k, i := range rows {
		pred[i] = out[k]
	}
}
