package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"retail/internal/workload"
)

// linearModelJSON is the stable on-disk form of a fitted LinearModel. The
// paper stores its models in shared memory ("if the model is f(x)=ax+b,
// we store a and b in an array"); persisting them lets a deployment
// calibrate once and restart without re-profiling.
type linearModelJSON struct {
	Version   int                    `json:"version"`
	Specs     []workload.FeatureSpec `json:"specs"`
	Selected  []int                  `json:"selected"`
	Levels    int                    `json:"levels"`
	Coef      [][]float64            `json:"coef"`
	CellMean  []float64              `json:"cell_mean"`
	CellOK    []bool                 `json:"cell_ok"`
	LevelMean []float64              `json:"level_mean"`
	LevelOK   []bool                 `json:"level_ok"`
	Global    float64                `json:"global_mean"`
}

const linearModelVersion = 1

// Save writes the model as JSON.
func (m *LinearModel) Save(w io.Writer) error {
	out := linearModelJSON{
		Version:   linearModelVersion,
		Specs:     m.layout.Specs,
		Selected:  m.layout.Selected,
		Levels:    m.levels,
		Coef:      m.coef,
		CellMean:  m.cellMean,
		CellOK:    m.cellOK,
		LevelMean: m.levelMean,
		LevelOK:   m.levelOK,
		Global:    m.globalMean,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadLinear reads a model saved with Save and validates its internal
// consistency before returning it.
func LoadLinear(r io.Reader) (*LinearModel, error) {
	var in linearModelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("predict: load: %w", err)
	}
	if in.Version != linearModelVersion {
		return nil, fmt.Errorf("predict: model version %d, want %d", in.Version, linearModelVersion)
	}
	if in.Levels <= 0 {
		return nil, errors.New("predict: load: non-positive level count")
	}
	for i, s := range in.Specs {
		if s.Kind == workload.Categorical && s.Categories <= 0 {
			return nil, fmt.Errorf("predict: load: categorical spec %d has %d categories", i, s.Categories)
		}
	}
	layout := FeatureLayout{Specs: in.Specs, Selected: in.Selected}
	for _, j := range in.Selected {
		if j < 0 || j >= len(in.Specs) {
			return nil, fmt.Errorf("predict: load: selected index %d outside specs", j)
		}
	}
	// Combos()·Levels, taken one factor at a time and abandoned once it
	// exceeds the arrays, so a hostile category count cannot overflow it.
	cells := in.Levels
	for _, j := range in.Selected {
		if s := in.Specs[j]; s.Kind == workload.Categorical {
			if s.Categories > len(in.Coef)/cells {
				return nil, fmt.Errorf("predict: load: %d cell arrays, fewer than the layout's cells", len(in.Coef))
			}
			cells *= s.Categories
		}
	}
	if len(in.Coef) != cells || len(in.CellMean) != cells || len(in.CellOK) != cells {
		return nil, fmt.Errorf("predict: load: cell arrays sized %d/%d/%d, want %d",
			len(in.Coef), len(in.CellMean), len(in.CellOK), cells)
	}
	if len(in.LevelMean) != in.Levels || len(in.LevelOK) != in.Levels {
		return nil, errors.New("predict: load: level arrays mis-sized")
	}
	cat, num := layout.split()
	for i, beta := range in.Coef {
		if beta != nil && len(beta) != len(num)+1 {
			return nil, fmt.Errorf("predict: load: cell %d has %d coefficients, want %d", i, len(beta), len(num)+1)
		}
	}
	return &LinearModel{
		layout: layout, cat: cat, num: num, levels: in.Levels,
		coef: in.Coef, cellMean: in.CellMean, cellOK: in.CellOK,
		levelMean: in.LevelMean, levelOK: in.LevelOK, globalMean: in.Global,
	}, nil
}
