package live

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/workload"
)

// featurePredictor is a deterministic feature- and level-dependent
// service model: every pipeline member and level gets its own value, so a
// decision stream hashes which members the policy actually weighed.
type featurePredictor struct{}

func (featurePredictor) Predict(lvl cpu.Level, f []float64) float64 {
	const top = 12 // above cpu.DefaultGrid's max level
	base := 0.3e-3 + 0.12e-3*f[0] + 0.04e-3*f[1] + 0.01e-3*f[2]
	return base * float64(2*top-int(lvl)) / top
}

// pinnedParams is one non-default parameterization per policy: a retail
// monitor override (plus per-class targets), Rubik's quantile, Gemini's
// boost checkpoint and EETL's slow level.
var pinnedParams = map[string]policy.Params{
	"retail": {
		Monitor:     policy.MonitorParams{StepFrac: 0.1, Cap: 1.05, Alpha: 0.5, MinSamples: 10, Span: 0.3},
		ClassScales: []float64{1, 0.5, 2},
	},
	"rubik":  {Rubik: policy.RubikParams{Quantile: 0.99}},
	"gemini": {Gemini: policy.GeminiParams{BoostFrac: 0.6}},
	"eetl":   {EETL: policy.EETLParams{SlowFrac: 0.25}},
}

// pinnedLiveSHA are the decision-stream digests pinnedLiveStream produces.
// A change that alters no policy's behaviour leaves every one of them
// unchanged.
var pinnedLiveSHA = map[string]string{
	"retail/default": "5d70fad9c22a9f89",
	"retail/tuned":   "2774860ee439636c",
	"rubik/default":  "25434ef2256543bc",
	"rubik/tuned":    "f24c46425eba8677",
	"gemini/default": "91c64e7a13ba6457",
	"gemini/tuned":   "169c2c2a89c5d943",
	"eetl/default":   "33ec9995e8da363a",
	"eetl/tuned":     "7a417f718f913faf",
}

// TestPolicyDecisionsPinned: each of the four policies, under zero and
// under non-default Params, decides the same stream over 2 000 seeded
// random pipelines driven through Server.decideAt — level, predicted
// service, the boost it arms and QoS′ — with completions and monitor ticks
// interleaved so ReTail's QoS′ moves. The simulator side of the pin lives
// in internal/core.
func TestPolicyDecisionsPinned(t *testing.T) {
	profile := flatProfile(200, 0.4e-3, 2e-6)
	for _, pol := range []string{"retail", "rubik", "gemini", "eetl"} {
		for _, variant := range []string{"default", "tuned"} {
			name := pol + "/" + variant
			t.Run(name, func(t *testing.T) {
				var p policy.Params
				if variant == "tuned" {
					p = pinnedParams[pol]
				}
				srv, err := NewServer(ServerConfig{
					Addr:         "127.0.0.1:0",
					Workers:      1,
					QoS:          workload.QoS{Latency: 0.01, Percentile: 99},
					Predictor:    featurePredictor{},
					Backend:      NewMockBackend(cpu.DefaultGrid()),
					Exec:         func(Request, cpu.Level) {},
					Policy:       pol,
					ProfileAtMax: profile,
					Params:       p,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				if got := pinnedLiveStream(srv, 2000, 1); got != pinnedLiveSHA[name] {
					t.Errorf("%s: decision stream %s, want %s", name, got, pinnedLiveSHA[name])
				}
			})
		}
	}
}

// pinnedLiveStream drives n random pipelines through srv's decision path
// and returns the first 16 hex digits of the SHA-256 over every decision.
func pinnedLiveStream(srv *Server, n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	req := func(id uint64, genNs int64) *queuedReq {
		return &queuedReq{req: Request{
			ID:       id,
			GenNs:    srv.epochNs + genNs,
			Features: []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10},
			Class:    uint8(rng.Intn(4)),
		}}
	}
	nowNs := int64(1e9)
	id := uint64(0)
	for i := 0; i < n; i++ {
		nowNs += int64(rng.ExpFloat64() * 1e6)
		now := float64(nowNs) / 1e9
		genNs := nowNs - int64(rng.Float64()*8e6)
		id++
		head := req(id, genNs)
		queue := srv.queues[0][:0]
		for k := rng.Intn(10); k > 0; k-- {
			genNs += int64(rng.Float64() * 1e6)
			if genNs > nowNs {
				genNs = nowNs
			}
			id++
			queue = append(queue, req(id, genNs))
		}
		srv.queues[0] = queue
		lvl, predicted, qlen, qp := srv.decideAt(now, 0, head)
		delay, blvl, on := srv.boostFor(lvl, predicted)
		put(uint64(lvl))
		put(math.Float64bits(predicted))
		put(uint64(qlen))
		put(uint64(qp))
		put(uint64(delay))
		put(uint64(blvl))
		if on {
			put(1)
		} else {
			put(0)
		}
		for k := rng.Intn(4); k > 0; k-- {
			srv.dec.Observe(now, rng.Float64()*0.02)
		}
		if i%7 == 0 {
			srv.dec.Tick(now)
		}
	}
	srv.queues[0] = srv.queues[0][:0]
	return hex.EncodeToString(h.Sum(nil))[:16]
}
