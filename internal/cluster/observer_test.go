package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"retail/internal/obs"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/trace"
)

// observedFleet is one fleet cell's observable output: the printed
// result, the per-node ledger report, the telemetry exposition and one
// flight recorder's Chrome trace per node.
type observedFleet struct {
	result, ledger, metrics []byte
	chrome                  [][]byte
	violations              uint64
}

// runObservedFleet runs cfg with telemetry, a ledger and a flight
// recorder on every node. builtinFirst registers them the way RunFleet
// does for Registry and Ledger — telemetry, ledger — with the flight
// recorder after them; otherwise the test registers all three itself in
// the reverse order: flight recorder, ledger, telemetry.
func runObservedFleet(t *testing.T, cfg FleetConfig, builtinFirst bool) observedFleet {
	t.Helper()
	reg := telemetry.NewRegistry()
	flights := make([]*trace.FlightRecorder, cfg.Nodes)
	ledgers := make([]*obs.NodeLedger, cfg.Nodes)
	servers := make([]*server.Server, cfg.Nodes)
	qos := cfg.Cal.App.QoS()
	if builtinFirst {
		cfg.Registry, cfg.Ledger = reg, true
	}
	cfg.observe = func(e *sim.Engine, i int, s *server.Server) {
		servers[i] = s
		flights[i] = trace.NewFlightRecorder(trace.FlightRecorderConfig{QoS: qos})
		s.Observe(flights[i])
		if builtinFirst {
			return
		}
		led := obs.AttachLedger(s, qos)
		e.At(cfg.Warmup, "test.ledger.reset", func(*sim.Engine) { led.Reset() })
		ledgers[i] = led
		server.AttachTelemetry(s, reg, cfg.Cal.App.Name(), qos, telemetry.L("node", strconv.Itoa(i)))
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	summaries := res.Ledger
	res.Ledger = nil
	out := observedFleet{result: fmt.Appendf(nil, "%+v", *res)}
	if !builtinFirst {
		end := cfg.Warmup + cfg.Duration
		for i, led := range ledgers {
			summaries = append(summaries, led.Summary(res.App, i,
				servers[i].Socket.EnergyByLevel(end), servers[i].Socket.UncoreJoules(end)))
		}
	}
	if out.ledger, err = json.Marshal(summaries); err != nil {
		t.Fatal(err)
	}
	for _, ns := range summaries {
		out.violations += ns.Violations()
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = buf.Bytes()
	for _, fr := range flights {
		var b bytes.Buffer
		if err := fr.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		out.chrome = append(out.chrome, b.Bytes())
	}
	return out
}

// GIVEN one fleet cell under ReTail with telemetry, a ledger and a
// flight recorder on every node, WHEN the three are registered in one
// order and then in the reverse order, THEN the fleet result, the ledger
// report, the metrics exposition and every node's Chrome trace are byte
// for byte the same: attach order is not a convention any observer
// relies on.
func TestGivenThreeObservers_WhenRegisteredInEitherOrder_ThenFleetArtifactsAreByteIdentical(t *testing.T) {
	cfg := ledgerFleetConfig(t, "retail", 0.8)
	cfg.Duration = 2 * sim.Second
	a := runObservedFleet(t, cfg, true)
	b := runObservedFleet(t, cfg, false)
	for _, c := range []struct {
		name string
		a, b []byte
	}{{"result", a.result, b.result}, {"ledger report", a.ledger, b.ledger}, {"metrics", a.metrics, b.metrics}} {
		if !bytes.Equal(c.a, c.b) {
			t.Errorf("%s differs between registration orders:\n%s\nvs\n%s", c.name, c.a, c.b)
		}
	}
	for i := range a.chrome {
		if !bytes.Equal(a.chrome[i], b.chrome[i]) {
			t.Errorf("node %d Chrome trace differs between registration orders (%d vs %d bytes)", i, len(a.chrome[i]), len(b.chrome[i]))
		}
	}
	if a.violations == 0 || !bytes.Contains(a.chrome[0], []byte(`"freq level w0"`)) {
		t.Fatalf("degenerate run: %d violations attributed, node 0 trace without decisions: %.200s", a.violations, a.chrome[0])
	}
}
