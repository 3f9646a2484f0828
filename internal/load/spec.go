// Package load is the serving load harness: an open-loop, ServeGen-style
// trace generator and replay engine that measures mctsuid (internal/server)
// under realistic multi-user traffic and turns the run into the
// BENCH_serving.json report cmd/mctsload gates CI on.
//
// The model has three layers:
//
//   - A Spec describes traffic as client *classes*, each with an open-loop
//     arrival process (Poisson or Gamma interarrivals), a per-class op mix
//     over generate / session-append / interact / export, a think-time
//     between a session's ops, and a session lifetime in ops.
//   - Generate expands a Spec deterministically (seeded RNG per class) into
//     a trace: a time-ordered sequence of Events, serializable as JSONL for
//     byte-reproducible recording and replay.
//   - Replay issues the trace against a live daemon with open-loop
//     semantics — every request fires at its scheduled time regardless of
//     whether earlier responses have arrived, so an overloaded server sees
//     the backlog a real user population would generate — and collects
//     per-class latency histograms, throughput/goodput, 429/503 rates, SSE
//     time-to-first-event, and /v1/stats cache and admission curves.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/workload"
)

// Spec is the workload specification: the traffic of every client class
// plus the run's phases. Warmup precedes the measured window; samples
// dispatched during warmup are replayed but excluded from the report.
type Spec struct {
	Name       string      `json:"name,omitempty"`
	Seed       int64       `json:"seed"`
	WarmupMS   int64       `json:"warmup_ms,omitempty"`
	DurationMS int64       `json:"duration_ms"`
	Classes    []ClassSpec `json:"classes"`
}

// ClassSpec is one client class: an arrival process for session starts and
// the behavior of each session it spawns.
type ClassSpec struct {
	Name string `json:"name"`
	// Arrival is the interarrival distribution of session starts:
	// "poisson" (exponential interarrivals, the default) or "gamma"
	// (Gamma-distributed interarrivals with coefficient of variation CV —
	// CV > 1 models bursty traffic, CV < 1 smoother-than-Poisson).
	Arrival string `json:"arrival,omitempty"`
	// RatePerSec is the mean session-arrival rate.
	RatePerSec float64 `json:"rate_per_sec"`
	// CV is the gamma interarrival coefficient of variation (ignored for
	// poisson; default 1, which makes gamma coincide with poisson).
	CV float64 `json:"cv,omitempty"`
	// SessionOps is the session lifetime in operations, including the
	// opening one (default 1: every arrival is a single request).
	SessionOps int `json:"session_ops,omitempty"`
	// ThinkMS is the mean think time between a session's consecutive ops,
	// exponentially distributed (0: ops are scheduled back-to-back).
	ThinkMS float64 `json:"think_ms,omitempty"`
	// Mix weighs the op kinds. The first op of a session that uses session
	// state is always an append (it creates the session); a sampled
	// interact/export before the session exists degrades to append.
	// A sampled "generate" is a one-shot stateless generation.
	Mix OpMix `json:"mix"`
	// Workload names the query log feeding this class: "figure1" (default)
	// or another name workload.Named resolves. Appends walk the log one
	// query at a time, cycling at the end.
	Workload string `json:"workload,omitempty"`
	// InitQueries is how many queries the opening request carries
	// (default 1).
	InitQueries int `json:"init_queries,omitempty"`
	// Iterations is the per-request search iteration budget (default 8;
	// iteration budgets keep replayed searches deterministic).
	Iterations int `json:"iterations,omitempty"`
	// Stream switches this class's generate ops to SSE streaming, which the
	// collector measures for time-to-first-event.
	Stream bool `json:"stream,omitempty"`
}

// OpMix weighs the four op kinds; weights are relative, not probabilities.
type OpMix struct {
	Generate float64 `json:"generate,omitempty"`
	Append   float64 `json:"append,omitempty"`
	Interact float64 `json:"interact,omitempty"`
	Export   float64 `json:"export,omitempty"`
}

func (m OpMix) total() float64 { return m.Generate + m.Append + m.Interact + m.Export }

// Horizon is the trace length: warmup plus the measured window.
func (s *Spec) Horizon() time.Duration {
	return time.Duration(s.WarmupMS+s.DurationMS) * time.Millisecond
}

// Validate checks the spec. Defaults are not materialized here — the
// accessor methods (workloadName, sessionOps, ...) apply them at use sites,
// so a recorded spec round-trips unchanged.
func (s *Spec) Validate() error {
	if s.DurationMS <= 0 {
		return fmt.Errorf("spec %q: duration_ms must be positive", s.Name)
	}
	if s.WarmupMS < 0 {
		return fmt.Errorf("spec %q: negative warmup_ms", s.Name)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("spec %q: no classes", s.Name)
	}
	seen := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("spec %q: class %d has no name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("spec %q: duplicate class %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Arrival {
		case "", "poisson", "gamma":
		default:
			return fmt.Errorf("class %q: unknown arrival %q (want poisson or gamma)", c.Name, c.Arrival)
		}
		if c.RatePerSec <= 0 {
			return fmt.Errorf("class %q: rate_per_sec must be positive", c.Name)
		}
		if c.CV < 0 {
			return fmt.Errorf("class %q: negative cv", c.Name)
		}
		if c.SessionOps < 0 || c.ThinkMS < 0 || c.InitQueries < 0 || c.Iterations < 0 {
			return fmt.Errorf("class %q: negative knob", c.Name)
		}
		if c.Mix.Generate < 0 || c.Mix.Append < 0 || c.Mix.Interact < 0 || c.Mix.Export < 0 {
			return fmt.Errorf("class %q: negative mix weight", c.Name)
		}
		if c.Mix.total() <= 0 {
			return fmt.Errorf("class %q: op mix has no positive weight", c.Name)
		}
		if _, err := workload.Named(c.workloadName()); err != nil {
			return fmt.Errorf("class %q: %w", c.Name, err)
		}
	}
	return nil
}

func (c *ClassSpec) workloadName() string {
	if c.Workload == "" {
		return "figure1"
	}
	return c.Workload
}

func (c *ClassSpec) sessionOps() int {
	if c.SessionOps <= 0 {
		return 1
	}
	return c.SessionOps
}

func (c *ClassSpec) initQueries() int {
	if c.InitQueries <= 0 {
		return 1
	}
	return c.InitQueries
}

func (c *ClassSpec) iterations() int {
	if c.Iterations <= 0 {
		return 8
	}
	return c.Iterations
}

func (c *ClassSpec) cv() float64 {
	if c.CV <= 0 {
		return 1
	}
	return c.CV
}

// ParseSpec decodes a spec from JSON, rejecting unknown fields so a typoed
// knob fails loudly instead of silently running the default.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// SmokeSpec is the built-in seconds-scale spec the CI bench-serving job
// runs: two classes — steady analyst sessions over the figure1 log and a
// bursty one-shot streaming class over the SDSS log — at rates a shared
// runner sustains with headroom.
func SmokeSpec() Spec {
	return Spec{
		Name:       "smoke",
		Seed:       1,
		WarmupMS:   2000,
		DurationMS: 6000,
		Classes: []ClassSpec{
			{
				Name:       "analyst",
				Arrival:    "poisson",
				RatePerSec: 2.5,
				SessionOps: 4,
				ThinkMS:    200,
				Mix:        OpMix{Generate: 1, Append: 3, Interact: 3, Export: 2},
				Workload:   "figure1",
				Iterations: 6,
			},
			{
				Name:        "burst",
				Arrival:     "gamma",
				RatePerSec:  1.5,
				CV:          2.5,
				SessionOps:  1,
				Mix:         OpMix{Generate: 1},
				Workload:    "sdss",
				InitQueries: 3,
				Iterations:  4,
				Stream:      true,
			},
		},
	}
}
