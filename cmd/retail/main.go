// Command retail is the ReTail reproduction's one command-line tool. Each
// subcommand is one surface of the system:
//
//	retail sim           one measured simulation: one app, one power manager, one load point
//	retail cluster       the fleet-scale routing×policy×load sweep
//	retail tune          search policy params by replaying a recorded trace (the digital twin)
//	retail chaos         replay fault plans against the live runtime or the simulator
//	retail bench         regenerate the paper's tables and figures
//	retail characterize  the §III workload characterization and §IV feature selection
//	retail live          the wall-clock runtime: a TCP server with real or mocked DVFS
//	retail loadgen       an open-loop client for a live server
//
// `retail <subcommand> -h` lists a subcommand's flags. The flags several
// subcommands share (-app, -seed, -params, -report, -parallel, -quick,
// -workers, -samples, -rps, -spec/-record/-replay) mean the same thing
// and are validated the same way everywhere; see flags.go. A usage error
// exits 2 before any work starts; a failure during the run exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// A command is one subcommand. bind declares its flags on f and returns
// its body, which runs once f has parsed and validated the arguments.
type command struct {
	name, summary string
	bind          func(f *cmdFlags) (body func() error)
}

var commands = []command{
	{"sim", "one measured simulation: one app, one power manager, one load point", bindSim},
	{"cluster", "the fleet-scale routing×policy×load sweep", bindCluster},
	{"tune", "search policy params by replaying a recorded trace (the digital twin)", bindTune},
	{"chaos", "replay fault plans against the live runtime or the simulator", bindChaos},
	{"bench", "regenerate the paper's tables and figures", bindBench},
	{"characterize", "the §III workload characterization and §IV feature selection", bindCharacterize},
	{"live", "the wall-clock runtime: a TCP server with real or mocked DVFS", bindLive},
	{"loadgen", "an open-loop client for a live server", bindLoadgen},
}

func main() { os.Exit(run(os.Args[1:])) }

// run runs the subcommand args names and maps its error to the exit
// status: 0 on success or -h, 2 for a usage error, 1 otherwise.
func run(args []string) int {
	i := -1
	if len(args) > 0 {
		i = slices.IndexFunc(commands, func(c command) bool { return c.name == args[0] })
	}
	if i < 0 {
		w, status := io.Writer(os.Stderr), 2
		if len(args) > 0 && slices.Contains([]string{"help", "-h", "-help", "--help"}, args[0]) {
			w, status = os.Stdout, 0
		} else if len(args) > 0 {
			fmt.Fprintf(w, "retail: unknown subcommand %q\n\n", args[0])
		}
		fmt.Fprint(w, "usage: retail <subcommand> [flags]   (retail <subcommand> -h lists its flags)\n\n")
		for _, c := range commands {
			fmt.Fprintf(w, "  %-13s %s\n", c.name, c.summary)
		}
		return status
	}
	f := newFlags(commands[i].name)
	body := commands[i].bind(f)
	err := f.parse(args[1:])
	if err == nil {
		err = body()
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		f.SetOutput(os.Stderr)
		f.Usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.Name(), err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
