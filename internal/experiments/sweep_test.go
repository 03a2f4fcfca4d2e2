package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunSweepPreservesCanonicalOrder(t *testing.T) {
	for _, parallel := range []int{1, 4, 16} {
		cells := make([]SweepCell[int], 50)
		for i := range cells {
			i := i
			cells[i] = SweepCell[int]{
				Label: fmt.Sprintf("cell-%d", i),
				Run:   func() (int, error) { return i * i, nil },
			}
		}
		got, err := RunSweep(parallel, cells)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunSweepFirstErrorInCanonicalOrder(t *testing.T) {
	boom7 := errors.New("boom-7")
	boom3 := errors.New("boom-3")
	cells := make([]SweepCell[int], 10)
	for i := range cells {
		i := i
		cells[i] = SweepCell[int]{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func() (int, error) {
				switch i {
				case 3:
					return 0, boom3
				case 7:
					return 0, boom7
				}
				return i, nil
			},
		}
	}
	// Whatever the scheduling, the reported error must be the canonically
	// first one (cell 3), wrapped with its label.
	for _, parallel := range []int{1, 8} {
		_, err := RunSweep(parallel, cells)
		if !errors.Is(err, boom3) {
			t.Fatalf("parallel=%d: err = %v, want wrapped boom-3", parallel, err)
		}
		if errors.Is(err, boom7) {
			t.Fatalf("parallel=%d: err = %v leaked the later cell's error", parallel, err)
		}
	}
}

func TestRunSweepRunsEveryCellOnce(t *testing.T) {
	var n atomic.Int64
	cells := make([]SweepCell[struct{}], 37)
	for i := range cells {
		cells[i] = SweepCell[struct{}]{
			Label: fmt.Sprintf("cell-%d", i),
			Run: func() (struct{}, error) {
				n.Add(1)
				return struct{}{}, nil
			},
		}
	}
	if _, err := RunSweep(5, cells); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 37 {
		t.Fatalf("ran %d cells, want 37", got)
	}
}

// TestSweepParallelismDeterministic is the ISSUE's acceptance criterion: the
// same sweep run sequentially (-parallel 1) and with a worker pool
// (-parallel 8) must produce byte-identical rendered tables and CSV bytes.
// Fig 11 exercises the two-level fan-out (apps × load × manager) and the
// ablation sweep the variant fan-out.
func TestSweepParallelismDeterministic(t *testing.T) {
	cfg := quickCfg()

	cfg.Parallel = 1
	seq, err := Fig11(cfg, []string{"xapian"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	par, err := Fig11(cfg, []string{"xapian"})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Errorf("fig11 render differs between -parallel 1 and -parallel 8:\n--- parallel=1\n%s\n--- parallel=8\n%s", seq.Render(), par.Render())
	}
	var seqCSV, parCSV bytes.Buffer
	if err := seq.CSV(&seqCSV); err != nil {
		t.Fatal(err)
	}
	if err := par.CSV(&parCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqCSV.Bytes(), parCSV.Bytes()) {
		t.Error("fig11 CSV bytes differ between -parallel 1 and -parallel 8")
	}

	cfg.Parallel = 1
	aseq, err := Ablation(cfg, "xapian")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	apar, err := Ablation(cfg, "xapian")
	if err != nil {
		t.Fatal(err)
	}
	if aseq.Render() != apar.Render() {
		t.Error("ablation render differs between -parallel 1 and -parallel 8")
	}
	var aseqCSV, aparCSV bytes.Buffer
	if err := aseq.CSV(&aseqCSV); err != nil {
		t.Fatal(err)
	}
	if err := apar.CSV(&aparCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aseqCSV.Bytes(), aparCSV.Bytes()) {
		t.Error("ablation CSV bytes differ between -parallel 1 and -parallel 8")
	}
}
