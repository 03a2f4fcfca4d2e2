package main

import (
	"errors"
	"fmt"
	"os"

	"retail/internal/tune"
	"retail/internal/workload"
)

// bindTune is `retail tune`, which closes the digital-twin loop: replay
// a recorded request trace (sim/cluster -record) under every candidate
// of a declared policy-parameter search, score each replay on energy ×
// p99 × violations, and emit the winner as a params.json that sim, live,
// cluster and chaos all accept via -params.
//
//	retail sim -spec steady-poisson -record run.trace
//	retail tune -trace run.trace -search search.json -out params.json
//	retail sim -replay run.trace -params params.json   # reproduce the winner
//	retail tune -fields                                # list tunable knobs
//
// The run is deterministic: candidates replay concurrently (-parallel)
// but the table, report and winning params are byte-identical at every
// setting — same contract as the repo's other sweeps.
func bindTune(f *cmdFlags) func() error {
	f.seedFlag(7)
	f.workersFlag(8)
	f.samplesFlag(400)
	f.parallelFlag()
	f.quickNNFlag()
	f.reportFlag()
	var (
		tracePath  = f.String("trace", "", "recorded v2 trace to replay (required)")
		searchPath = f.String("search", "", "search-spec JSON declaring the axes and bounds (required)")
		mgrName    = f.String("manager", "retail", "tuned policy: retail, rubik, gemini or eetl")
		outPath    = f.String("out", "", "file for the winning params.json")
		fields     = f.Bool("fields", false, "list the tunable field paths and exit")

		spec  *tune.Spec
		trace *workload.Trace
	)
	f.check(func() (err error) {
		switch {
		case *fields:
			return nil
		case *tracePath == "" || *searchPath == "":
			return errors.New("-trace and -search are required")
		}
		if spec, err = tune.LoadSpec(*searchPath); err == nil {
			trace, err = workload.ReadTraceFile(*tracePath)
		}
		return err
	})

	return func() error {
		if *fields {
			for _, name := range tune.FieldNames() {
				fmt.Println(name)
			}
			return nil
		}
		res, err := tune.Run(tune.Config{
			Trace: trace, Spec: spec,
			Manager: *mgrName, Workers: f.workers,
			SamplesPerLevel: f.samples, Seed: f.seed,
			Parallel: f.parallel, GeminiNN: f.geminiNN(),
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())

		if *outPath != "" {
			b, err := res.Winner().Params.CanonicalJSON()
			if err == nil {
				err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
			}
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s (params %s)\n", *outPath, res.Winner().ParamsSHA)
		}
		if f.report == "" {
			return nil
		}
		return writeReport(res.Report(f.seed), f.report, "wrote %s (report v%d, config %s)\n")
	}
}
