package load

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/workload"
)

// Generate expands a Spec into its trace: per class, an open-loop arrival
// process spawns sessions across the whole horizon (warmup + measured
// window), and each session unrolls into think-time-spaced ops. Everything
// is drawn from a per-class RNG seeded from (spec seed, class index), so
// the same spec always generates the identical trace — the determinism the
// replay tests pin byte-for-byte.
func Generate(spec Spec) ([]Event, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	horizon := spec.Horizon()
	var events []Event
	for ci := range spec.Classes {
		class := &spec.Classes[ci]
		// Seed mixing: spread class indices across the seed space (the
		// multiplier is the int64 bit pattern of the golden-ratio constant
		// 0x9E3779B97F4A7C15) so neighboring spec seeds do not produce
		// correlated class streams.
		rng := rand.New(rand.NewSource(spec.Seed + int64(ci+1)*-0x61C8864680B583EB))
		events = append(events, classEvents(class, rng, horizon)...)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("spec %q: no arrivals within the %v horizon (rates too low?)", spec.Name, horizon)
	}
	// Merge the per-class streams into one schedule. The sort is stable and
	// the per-class streams are already time-ordered, so equal timestamps
	// keep a deterministic order (class declaration order).
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtUS < events[j].AtUS })
	for i := range events {
		events[i].Seq = i
	}
	return events, nil
}

// classEvents simulates one class's arrivals and sessions to the horizon.
func classEvents(class *ClassSpec, rng *rand.Rand, horizon time.Duration) []Event {
	queries, err := workload.Named(class.workloadName())
	if err != nil {
		return nil // Validate already rejected unknown workloads
	}
	var events []Event
	var at time.Duration
	session := 0
	for {
		at += interarrival(class, rng)
		if at >= horizon {
			return events
		}
		session++
		events = append(events, sessionEvents(class, rng, at, session, queries, horizon)...)
	}
}

// sessionEvents unrolls one session: SessionOps ops starting at the arrival
// time, spaced by exponential think times, truncated at the horizon. The
// first op that needs session state is an append (it creates the session);
// sampled interact/export ops before that degrade to append, and a sampled
// generate stays a stateless one-shot.
func sessionEvents(class *ClassSpec, rng *rand.Rand, at time.Duration, session int, queries []string, horizon time.Duration) []Event {
	var events []Event
	id := fmt.Sprintf("%s-%d", class.Name, session)
	created := false
	next := 0 // next query index for appends
	for op := 0; op < class.sessionOps(); op++ {
		if op > 0 {
			at += thinkTime(class, rng)
			if at >= horizon {
				return events
			}
		}
		ev := Event{
			AtUS:       at.Microseconds(),
			Class:      class.Name,
			Iterations: class.iterations(),
			// Per-request seeds come from the class RNG: deterministic per
			// trace, distinct per request (so the daemon's searches do not
			// trivially share one trajectory). Drawn unconditionally so
			// every op consumes the same RNG stream regardless of kind.
			Seed: 1 + rng.Int63n(math.MaxInt64-1),
		}
		switch kind := sampleOp(class, rng, op, created); kind {
		case OpGenerate:
			ev.Op = OpGenerate
			ev.Stream = class.Stream
			ev.Queries = queries[:min(class.initQueries(), len(queries))]
		case OpAppend:
			ev.Op = OpAppend
			ev.Session = id
			if !created {
				n := min(class.initQueries(), len(queries))
				ev.Queries = queries[:n]
				next = n % len(queries)
				created = true
			} else {
				ev.Queries = queries[next : next+1]
				next = (next + 1) % len(queries)
			}
		case OpInteract:
			ev.Op = OpInteract
			ev.Session = id
		case OpExport:
			ev.Op = OpExport
			ev.Session = id
		}
		events = append(events, ev)
	}
	return events
}

// sampleOp draws an op kind from the class mix. The opening op and any
// session-state op before the session exists are forced to the creating
// kind: a pure-generate mix opens with generate, anything else with append.
func sampleOp(class *ClassSpec, rng *rand.Rand, op int, created bool) string {
	m := class.Mix
	r := rng.Float64() * m.total() // consumed every call: fixed RNG stream
	kind := OpGenerate
	switch {
	case r < m.Generate:
		kind = OpGenerate
	case r < m.Generate+m.Append:
		kind = OpAppend
	case r < m.Generate+m.Append+m.Interact:
		kind = OpInteract
	default:
		kind = OpExport
	}
	if !created && (kind == OpInteract || kind == OpExport) {
		if m.Append > 0 || m.Generate <= 0 {
			return OpAppend
		}
		return OpGenerate
	}
	return kind
}

// interarrival draws the gap to the next session arrival.
func interarrival(class *ClassSpec, rng *rand.Rand) time.Duration {
	mean := 1 / class.RatePerSec // seconds
	var gap float64
	if class.Arrival == "gamma" {
		// Gamma interarrivals with the configured coefficient of variation:
		// shape k = 1/CV^2, scale = mean/k keeps the mean at 1/rate while
		// CV > 1 clusters arrivals into bursts.
		cv := class.cv()
		k := 1 / (cv * cv)
		gap = sampleGamma(rng, k) * mean / k
	} else {
		gap = rng.ExpFloat64() * mean
	}
	return secondsToDuration(gap)
}

// thinkTime draws the exponential gap between a session's consecutive ops.
func thinkTime(class *ClassSpec, rng *rand.Rand) time.Duration {
	if class.ThinkMS <= 0 {
		return 0
	}
	return secondsToDuration(rng.ExpFloat64() * class.ThinkMS / 1000)
}

func secondsToDuration(s float64) time.Duration {
	d := time.Duration(s * float64(time.Second))
	if d < 0 { // overflow or a pathological sample; clamp rather than warp time
		return time.Hour
	}
	return d
}

// sampleGamma draws from Gamma(shape k, scale 1) via Marsaglia–Tsang
// (2000), the standard squeeze method; the k < 1 case boosts a k+1 draw by
// U^(1/k). Purely rng-driven, so samples are deterministic under a seeded
// source.
func sampleGamma(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
