// Package api is the single source of truth for the v1 HTTP wire contract
// of the mctsui serving stack. Every JSON request and response body — and
// every SSE event payload — exchanged between a client and an mctsuid
// replica, or between the mctsrouter fleet router and its replicas, is
// defined here and nowhere else. internal/server marshals these types,
// internal/api/client decodes them, internal/router forwards and aggregates
// them, and internal/load replays traffic built from them; a field added
// here is visible to all four at once, and a field added anywhere else is a
// contract violation.
//
// The contract is versioned by path prefix (/v1/...). Additive changes
// (new optional fields, new endpoints) are compatible; renaming or removing
// a field is a breaking change and would move the surface to /v2.
//
// Endpoint map (server-side handlers in internal/server, fleet-side in
// internal/router):
//
//	POST /v1/generate               GenerateRequest  -> GenerateResponse | SSE
//	POST /v1/sessions/{id}/queries  SessionQueriesRequest -> GenerateResponse | SSE
//	POST /v1/sessions/{id}/interact InteractRequest  -> InteractResponse
//	POST /v1/sessions/{id}/import   codec JSON       -> GenerateResponse
//	GET  /v1/sessions/{id}/export   -> codec JSON or HTML page
//	GET  /v1/cache/export           -> binary cache snapshot
//	POST /v1/cache/import           binary snapshot  -> CacheImportResponse
//	POST /v1/drain                  -> DrainResponse
//	GET  /v1/stats                  -> StatsResponse (router: FleetStatsResponse)
//	GET  /healthz                   -> HealthResponse (liveness: 200 while the
//	                                   process runs, draining or not)
//	GET  /readyz                    -> HealthResponse (readiness: 503 while
//	                                   draining or before warm boot completes)
//
// Router-only fleet management surface:
//
//	GET  /v1/fleet        -> FleetResponse
//	POST /v1/fleet/join   FleetJoinRequest  -> FleetJoinResponse
//	POST /v1/fleet/leave  FleetLeaveRequest -> FleetLeaveResponse
//
// Every non-2xx response carries an ErrorBody.
package api

import (
	"encoding/json"
	"math"
)

// --- Shared search parameters ----------------------------------------------

// Size is a width/height pair (screen constraint, interface bounds).
type Size struct {
	// W is the width in character cells.
	W int `json:"w"`
	// H is the height in character cells.
	H int `json:"h"`
}

// SearchParams are the per-request search knobs shared by /v1/generate and
// /v1/sessions/{id}/queries.
type SearchParams struct {
	// Iterations bounds the search (engine default when 0 and no budget).
	Iterations int `json:"iterations,omitempty"`
	// BudgetMS bounds wall-clock search time in milliseconds, clamped to
	// the server's MaxBudget. The search is anytime: hitting the budget —
	// or the daemon draining — returns the best interface found so far.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Strategy is a StrategyByName spec: "mcts", "beam[:W]", "greedy",
	// "random[:N]", "exhaustive[:M]".
	Strategy string `json:"strategy,omitempty"`
	// Workers runs root-parallel searches, clamped to the server's
	// MaxWorkers.
	Workers int `json:"workers,omitempty"`
	// TreeWorkers runs each MCTS search tree-parallel with that many
	// goroutines sharing one tree (virtual-loss diversification). Admission
	// control caps the request's total goroutine fan-out: workers ×
	// tree_workers never exceeds MaxWorkers. Requests with tree_workers > 1
	// trade the byte-identical-response determinism contract for speed.
	TreeWorkers int `json:"tree_workers,omitempty"`
	// Seed makes the response deterministic (engine default when 0).
	Seed int64 `json:"seed,omitempty"`
	// Screen is the output constraint (wide screen when omitted).
	Screen *Size `json:"screen,omitempty"`
}

// --- Generation -------------------------------------------------------------

// GenerateRequest is the /v1/generate body.
type GenerateRequest struct {
	SearchParams
	// Queries is the SQL query log, one statement per entry.
	Queries []string `json:"queries"`
	// Stream switches the response to Server-Sent Events: "progress"
	// events with best-so-far snapshots, then one "result" (or "error")
	// event. Also enabled by "Accept: text/event-stream".
	Stream bool `json:"stream,omitempty"`
}

// SessionQueriesRequest is the /v1/sessions/{id}/queries body.
type SessionQueriesRequest struct {
	SearchParams
	// Queries are appended to the session's stored log; the interface is
	// regenerated over the whole log, warm-started from the session's
	// previous interface. An existing session accepts an empty append (a
	// pure re-generation, e.g. with a bigger budget); a new session needs
	// at least one query.
	Queries []string `json:"queries"`
	// Stream switches to SSE progress streaming, as in /v1/generate.
	Stream bool `json:"stream,omitempty"`
}

// SearchStats is the deterministic subset of the engine's search
// diagnostics (wall-clock fields are deliberately excluded so identical
// requests produce byte-identical responses).
type SearchStats struct {
	// Strategy is the strategy that produced the interface.
	Strategy string `json:"strategy"`
	// Iterations is the number of completed search iterations.
	Iterations int `json:"iterations"`
	// Evals is the number of state evaluations the search performed.
	Evals int `json:"evals"`
	// Workers is the root-parallel worker count the search ran with.
	Workers int `json:"workers"`
	// TreeWorkers is the tree-parallel goroutine count per search tree.
	TreeWorkers int `json:"tree_workers"`
	// Interrupted reports that the search hit its budget, the request
	// context ended, or the daemon drained — the result is best-so-far.
	Interrupted bool `json:"interrupted"`
	// WarmStarted reports that the search was seeded from the session's
	// previous interface.
	WarmStarted bool `json:"warm_started"`
	// ReRooted reports that this search reused the session's previous MCTS
	// tree, re-rooted at its best state (MCTS session appends only).
	ReRooted bool `json:"re_rooted"`
}

// GenerateResponse is the result of a generation (one-shot or session).
type GenerateResponse struct {
	// Session is the session id (session endpoints only).
	Session string `json:"session,omitempty"`
	// Created reports that the session request found no stored interface
	// and started fresh — the signal that an append did *not* extend
	// previous state (e.g. the session had idled out of the LRU, or its
	// replica was lost and the fleet router re-placed it).
	Created bool `json:"created,omitempty"`
	// QueryCount is the total queries in the (session) log after this
	// request.
	QueryCount int `json:"query_count"`
	// Cost is the interface's total cost under the paper's model
	// (-1 when no valid interface was found; +Inf is not JSON).
	Cost float64 `json:"cost"`
	// M is the manipulation-cost component of Cost.
	M float64 `json:"m"`
	// U is the unfamiliarity-cost component of Cost.
	U float64 `json:"u"`
	// Valid reports whether a legal interface was found at all.
	Valid bool `json:"valid"`
	// Widgets is the widget count of the interface.
	Widgets int `json:"widgets"`
	// Bounds is the rendered interface's bounding box.
	Bounds Size `json:"bounds"`
	// ASCII is the layout sketch (the paper's figure style).
	ASCII string `json:"ascii"`
	// Interface is the persisted form (codec JSON) — the exact bytes
	// /v1/sessions/{id}/import accepts.
	Interface json.RawMessage `json:"interface"`
	// Search carries the deterministic search diagnostics.
	Search SearchStats `json:"search"`
}

// --- Interaction ------------------------------------------------------------

// Interact op kinds (InteractRequest.Op).
const (
	// OpSet sets a widget's value.
	OpSet = "set"
	// OpSetInstance sets a value inside an adder instance.
	OpSetInstance = "set_instance"
	// OpLoadQuery sets every widget so the current query equals Query.
	OpLoadQuery = "load_query"
	// OpGet is a read-only snapshot.
	OpGet = "get"
)

// InteractRequest is the /v1/sessions/{id}/interact body.
type InteractRequest struct {
	// Op is one of the Op* interact constants ("" means OpGet).
	Op string `json:"op"`
	// Widget is the widget index for set/set_instance.
	Widget int `json:"widget,omitempty"`
	// Value is the option index (choice), 0/1 (toggle), or instance count
	// (adder).
	Value int `json:"value,omitempty"`
	// Instance addresses the enclosing adder instances, outermost first,
	// for set_instance.
	Instance []int `json:"instance,omitempty"`
	// Query is the SQL to load for load_query.
	Query string `json:"query,omitempty"`
}

// WidgetState is one widget's display state.
type WidgetState struct {
	// Index is the widget's position in the interface.
	Index int `json:"index"`
	// Type is the widget kind (choice, toggle, adder, ...).
	Type string `json:"type"`
	// Title is the widget caption.
	Title string `json:"title"`
	// Options are the selectable values (choice widgets).
	Options []string `json:"options,omitempty"`
	// Value is the current value, rendered.
	Value string `json:"value"`
}

// InteractResponse reports the session's widget state and current query
// after the operation.
type InteractResponse struct {
	// Session is the session id.
	Session string `json:"session"`
	// SQL is the query the current widget values express.
	SQL string `json:"sql"`
	// Widgets is the full widget state after the op.
	Widgets []WidgetState `json:"widgets"`
}

// --- Cache transfer ---------------------------------------------------------

// CacheImportResponse is the /v1/cache/import success body.
type CacheImportResponse struct {
	// Entries is the number of snapshot entries merged into the cache.
	Entries int64 `json:"entries"`
}

// --- Observability ----------------------------------------------------------

// CacheStats is the /v1/stats cache section: the shared transposition
// cache's counters plus its occupancy ratio (entries/capacity) — the number
// the load harness plots as the cache fill/eviction curve.
type CacheStats struct {
	// Hits counts cache lookups answered from a stored entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that fell through to a fresh evaluation.
	Misses int64 `json:"misses"`
	// Entries is the current resident entry count.
	Entries int64 `json:"entries"`
	// Evictions counts CLOCK victims discarded to make room.
	Evictions int64 `json:"evictions"`
	// Capacity is the configured entry bound.
	Capacity int64 `json:"capacity"`
	// HitRate is Hits / (Hits + Misses).
	HitRate float64 `json:"hit_rate"`
	// Occupancy is Entries / Capacity.
	Occupancy float64 `json:"occupancy"`
}

// AdmissionStats is the /v1/stats admission section: cumulative per-outcome
// totals for every request that passed through the admission gate, plus the
// total time requests spent waiting for a search slot. Served counts
// admissions (a slot was granted); overflow/timeout/draining are the
// refusals aggregated in the top-level rejected counter; client_gone counts
// clients that disconnected while queued (not an admission refusal).
type AdmissionStats struct {
	// Served counts requests granted a search slot.
	Served int64 `json:"served"`
	// Overflow429 counts immediate refusals with a full queue.
	Overflow429 int64 `json:"overflow_429"`
	// QueueTimeout503 counts refusals after QueueWait expired slotless.
	QueueTimeout503 int64 `json:"queue_timeout_503"`
	// Draining503 counts refusals because the daemon was draining.
	Draining503 int64 `json:"draining_503"`
	// ClientGone counts clients that disconnected while queued.
	ClientGone int64 `json:"client_gone"`
	// QueueWaitMS is the cumulative slot-wait time in milliseconds.
	QueueWaitMS float64 `json:"queue_wait_total_ms"`
}

// ReplicaStats is the /v1/stats replica section: the daemon's fleet
// identity and lifecycle state — what a router needs to place sessions and
// decide routability.
type ReplicaStats struct {
	// ID is the operator-assigned replica identity (-replica-id; may be
	// empty on single-node deployments).
	ID string `json:"id,omitempty"`
	// Ready reports the /readyz verdict: warm boot complete and not
	// draining.
	Ready bool `json:"ready"`
	// Draining reports that graceful shutdown has begun.
	Draining bool `json:"draining"`
	// Sessions is the resident session count (same value as the top-level
	// gauge, repeated here so the section is self-contained).
	Sessions int `json:"sessions"`
}

// StatsResponse is the /v1/stats body of one replica.
type StatsResponse struct {
	// Cache is the shared transposition cache's counters.
	Cache CacheStats `json:"cache"`
	// Admission is the per-outcome admission ledger.
	Admission AdmissionStats `json:"admission"`
	// Replica is the daemon's fleet identity and lifecycle state.
	Replica ReplicaStats `json:"replica"`
	// Sessions is the resident session count.
	Sessions int `json:"sessions"`
	// Inflight is the number of searches currently holding a slot.
	Inflight int `json:"inflight"`
	// Queued is the number of requests waiting for a slot (excludes
	// inflight).
	Queued int64 `json:"queued"`
	// Requests is the cumulative admitted-search total.
	Requests int64 `json:"requests"`
	// Rejected is the cumulative admission-refusal total.
	Rejected int64 `json:"rejected"`
	// Draining reports that graceful shutdown has begun.
	Draining bool `json:"draining"`
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	// Status is "ok" (healthz), "ready", or the not-ready reason
	// ("draining", "warming").
	Status string `json:"status"`
	// Draining reports that graceful shutdown has begun.
	Draining bool `json:"draining,omitempty"`
	// Ready reports the readiness verdict (meaningful on /readyz).
	Ready bool `json:"ready"`
}

// DrainResponse is the POST /v1/drain body: the endpoint is idempotent, so
// the response just confirms the state.
type DrainResponse struct {
	// Draining is always true after a successful drain request.
	Draining bool `json:"draining"`
}

// ErrorBody is every non-2xx response body.
type ErrorBody struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// --- SSE events -------------------------------------------------------------

// SSE event names emitted by the streaming generate endpoints.
const (
	// EventProgress frames carry a ProgressEvent snapshot.
	EventProgress = "progress"
	// EventResult is the final frame of a successful stream: a
	// GenerateResponse.
	EventResult = "result"
	// EventError is the final frame of a failed stream: an ErrorBody.
	EventError = "error"
)

// ProgressEvent is one SSE "progress" frame: a best-so-far snapshot of the
// running search (the same data cmd/mctsui -progress prints). BestCost is
// -1 until a valid interface has been seen.
type ProgressEvent struct {
	// Strategy is the running strategy's name.
	Strategy string `json:"strategy"`
	// Worker is the root-parallel worker reporting (0 when sequential).
	Worker int `json:"worker"`
	// Iterations is the iterations completed so far.
	Iterations int `json:"iterations"`
	// States is the number of distinct states expanded so far.
	States int `json:"states"`
	// Evals is the number of evaluations performed so far.
	Evals int `json:"evals"`
	// BestCost is the best valid interface cost seen (-1 before the first).
	BestCost float64 `json:"best_cost"`
	// ElapsedMS is wall-clock search time so far in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// --- Fleet management (mctsrouter) ------------------------------------------

// Replica lifecycle states as the router reports them (FleetReplica.State).
const (
	// StateReady: probed healthy, in the ring, receiving traffic.
	StateReady = "ready"
	// StateUnready: reachable but /readyz refuses (warming up); out of the
	// ring until it turns ready.
	StateUnready = "unready"
	// StateDraining: planned removal in progress; ejected from the ring,
	// sessions re-placed.
	StateDraining = "draining"
	// StateDead: probes (or a forwarded request) failed; ejected from the
	// ring until probes succeed again.
	StateDead = "dead"
)

// FleetReplica is one replica's status in the router's /v1/fleet listing.
type FleetReplica struct {
	// URL is the replica's base URL — its identity in the fleet.
	URL string `json:"url"`
	// ID is the replica's self-reported -replica-id (from its stats).
	ID string `json:"id,omitempty"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Sessions is the replica's resident session count at the last probe.
	Sessions int `json:"sessions"`
	// CacheEntries is the replica's cache occupancy at the last probe —
	// the warmth signal join priming uses to pick a donor.
	CacheEntries int64 `json:"cache_entries"`
	// Queued and Inflight are the replica's admission gauges at the last
	// probe — the load signal the least-loaded policy routes on.
	Queued   int64 `json:"queued"`
	Inflight int   `json:"inflight"`
	// LastError is the most recent probe or forwarding failure ("" when
	// healthy).
	LastError string `json:"last_error,omitempty"`
}

// FleetResponse is the router's GET /v1/fleet body.
type FleetResponse struct {
	// Policy is the active routing policy name.
	Policy string `json:"policy"`
	// Replicas lists every fleet member, sorted by URL.
	Replicas []FleetReplica `json:"replicas"`
	// ReadyReplicas counts members currently in the ring.
	ReadyReplicas int `json:"ready_replicas"`
	// StickySessions counts sessions with a live placement.
	StickySessions int `json:"sticky_sessions"`
}

// FleetStatsResponse is the router's GET /v1/stats body: the fleet-wide
// aggregate in the same shape a single replica reports — counters summed,
// ratios recomputed — so a harness pointed at the router scrapes it exactly
// like a daemon, plus the per-replica breakdown.
type FleetStatsResponse struct {
	StatsResponse
	// Fleet is the per-replica breakdown behind the aggregate.
	Fleet []FleetReplica `json:"fleet"`
}

// FleetJoinRequest is the router's POST /v1/fleet/join body: add a replica
// to the fleet, warm-priming it first.
type FleetJoinRequest struct {
	// URL is the joining replica's base URL.
	URL string `json:"url"`
	// Donor optionally names the replica whose cache primes the joiner;
	// empty picks the warmest ready replica (most cache entries).
	Donor string `json:"donor,omitempty"`
	// Cold skips priming: the replica joins with whatever cache it has.
	Cold bool `json:"cold,omitempty"`
}

// FleetJoinResponse reports a completed join.
type FleetJoinResponse struct {
	// URL is the joined replica.
	URL string `json:"url"`
	// Primed reports that a donor snapshot was imported before joining.
	Primed bool `json:"primed"`
	// Donor is the replica whose cache primed the joiner ("" when cold).
	Donor string `json:"donor,omitempty"`
	// Entries is the number of cache entries the joiner merged.
	Entries int64 `json:"entries"`
}

// FleetLeaveRequest is the router's POST /v1/fleet/leave body: planned
// removal with warm handoff — the replica is ejected from the ring, drained,
// and its cache exported into the remaining replicas before it is dropped.
type FleetLeaveRequest struct {
	// URL is the departing replica's base URL.
	URL string `json:"url"`
	// Cold skips the warm handoff: eject and drain without shipping the
	// cache.
	Cold bool `json:"cold,omitempty"`
}

// FleetLeaveResponse reports a completed leave.
type FleetLeaveResponse struct {
	// URL is the departed replica.
	URL string `json:"url"`
	// Drained reports that the replica acknowledged the drain request.
	Drained bool `json:"drained"`
	// Entries is the exported snapshot's merged entry count on the first
	// recipient (0 on a cold leave).
	Entries int64 `json:"entries"`
	// Recipients lists the replicas the departing cache was imported into,
	// sorted by URL.
	Recipients []string `json:"recipients,omitempty"`
}

// --- Helpers ----------------------------------------------------------------

// JSONCost makes a cost JSON-representable (+Inf and NaN are not): the wire
// convention is -1 for "no valid interface".
func JSONCost(c float64) float64 {
	if math.IsInf(c, 1) || math.IsNaN(c) {
		return -1
	}
	return c
}
