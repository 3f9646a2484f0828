package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	mctsui "repro"
	"repro/internal/api"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/sqlparser"
)

// serve-mixed: open-loop HTTP from this process through an in-process
// mctsrouter (affinity policy) over two in-process mctsuid replicas.
//
// The traffic follows the repository's own serving model, the two
// classes of load.SmokeSpec (internal/load/spec.go): "analyst" sessions,
// 2.5 arrivals/s of 4 ops each in the mix generate 1 : append 3 :
// interact 3 : export 2, and "burst" one-shot generates over the first 3
// SDSS queries at 1.5/s, 4 iterations each. Together they offer 11.5
// requests/s at rate scale 1; serve-mixed offers rate scales 0.5, 0.75
// and 1, one third of the window each. Every search runs over the SDSS
// log at the burst class's 4 iterations, and every generate is the burst
// class's, over its 3 initial queries, so repeats hit the warm shared
// cache. A session opens (in warm-up, every session with one shared seed)
// with the first 8 SDSS queries and then appends queries 9 and 10 one at a
// time with its own seed: on those appends the daemon's warm start is
// taken, while on queries 2 to 7 it never is, so warm-start and re-root
// changes show here. Read sessions hold the full 10-query log. Arrivals
// are evenly spaced with a little seeded jitter, not Poisson or gamma, so
// a window's tail reflects the system rather than an arrival burst.
//
// The client has two lanes, one keep-alive connection each (so never more
// connections than CPUs on the two-CPU machines this is tuned for):
//
//   - the search lane carries the session appends and the warm one-shot
//     generates, interleaved, so at most one search is in flight and a
//     search never waits for a replica's slot;
//   - the read lane carries interact (get) and export reads, which never
//     search.
//
// Spreading each lane's requests evenly keeps a request from queueing
// behind the one before it while the system keeps up, so the latencies
// measure the system; a slowdown that outlasts the gap shows as backlog.
//
// Every request is timed from its due time, so a stall also delays the
// requests queued behind it.
const (
	serveIterations = 4
	serveFirst      = 8 // queries in a session's first append (made in warm-up)
	serveAppends    = 2 // one-query appends per session
	serveGenQueries = 3 // queries in the one-shot generate
	readSessions    = 2
	serveSearchSeed = 1 // base of the fixed search seeds (see newServeScenario)
	// tailLimitMS is the latency limit on a rate step's tail for the step
	// to count as sustained: one second, the response time within which
	// an interactive user keeps their train of thought.
	tailLimitMS = 1000
)

// rateScales multiply the classes' rates, one per third of the window.
var rateScales = []float64{0.5, 0.75, 1}

// ops are the request kinds, in the order mixes and counts list them.
var ops = [nOps]string{"generate", "append", "interact", "export"}

const nOps = 4

// trafficClass is one load.SmokeSpec class: its offered rate at rate
// scale 1 (session arrivals/s times ops per session) and its op mix, in
// ops order.
type trafficClass struct {
	rate float64
	mix  [nOps]int
}

var classes = []trafficClass{
	{2.5 * 4, [nOps]int{1, 3, 3, 2}}, // analyst
	{1.5 * 1, [nOps]int{1, 0, 0, 0}}, // burst
}

// offered is the requests/s a rate step offers.
func offered(step int) float64 {
	r := 0.0
	for _, c := range classes {
		r += c.rate
	}
	return r * rateScales[step]
}

// Replica search slots: one each, so the fleet never runs more searches
// than the two CPUs. Replica caches keep the daemon's default size.
const replicaSlots = 1

// --- The fleet ---------------------------------------------------------------

type ctxKey struct{}

// traceIDs travel from the router middleware to the router's outgoing
// requests through the request context, and from there to the replica as
// headers.
type traceIDs struct{ req, parent uint64 }

const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

func idsFrom(h http.Header) traceIDs {
	req, _ := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseUint(h.Get(hdrSpan), 10, 64)
	return traceIDs{req, parent}
}

func (ids traceIDs) set(h http.Header) {
	h.Set(hdrReq, strconv.FormatUint(ids.req, 10))
	h.Set(hdrSpan, strconv.FormatUint(ids.parent, 10))
}

// opOf names a v1 request by its route.
func opOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/generate":
		return "generate"
	case len(p) > 8 && p[len(p)-8:] == "/queries":
		return "append"
	case len(p) > 9 && p[len(p)-9:] == "/interact":
		return "interact"
	case len(p) > 7 && p[len(p)-7:] == "/export":
		return "export"
	}
	return ""
}

// serverSpans wraps a replica's Handler: one span per traced request.
func serverSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids := idsFrom(r.Header)
		if ids.req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record(span{Parent: ids.parent, Req: ids.req, Layer: "server", Op: opOf(r)}, t0, time.Now())
	})
}

// routerSpans wraps the router's Handler and hands the span's identity to
// the forwarding transport through the request context.
func routerSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ids := idsFrom(r.Header)
		if ids.req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.id()
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, traceIDs{ids.req, id}))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record(span{ID: id, Parent: ids.parent, Req: ids.req, Layer: "router", Op: opOf(r)}, t0, time.Now())
	})
}

// idTransport stamps the router span's identity on forwarded requests.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(ctxKey{}).(traceIDs); ok {
		r = r.Clone(r.Context())
		ids.set(r.Header)
	}
	return t.base.RoundTrip(r)
}

type fleet struct {
	url     string
	servers []*server.Server
	https   []*http.Server
	rt      *router.Router
	rtHTTP  *http.Server
	cl      *http.Client // router → replica forwarding
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

// startFleet brings up two replicas and the router, with span middleware
// when tr is non-nil, and waits for the router's /readyz.
func startFleet(ctx context.Context, tr *tracer) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{
			ReplicaID:     fmt.Sprintf("replica-%d", i),
			MaxConcurrent: replicaSlots,
			MaxWorkers:    1,
		})
		var h http.Handler = s.Handler()
		if tr != nil {
			h = serverSpans(tr, h)
		}
		hs, u, err := serveOn(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers, f.https = append(f.servers, s), append(f.https, hs)
		urls = append(urls, u)
	}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	f.cl = &http.Client{Transport: tp}
	if tr != nil {
		f.cl = &http.Client{Transport: idTransport{tp}}
	}
	rt, err := router.New(router.Config{Replicas: urls, Policy: "affinity", HTTPClient: f.cl})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = routerSpans(tr, h)
	}
	f.rtHTTP, f.url, err = serveOn(h)
	if err != nil {
		f.close()
		return nil, err
	}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/readyz", nil)
		if err != nil {
			f.close()
			return nil, err
		}
		resp, err := probe.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the router down before the replicas and waits for each.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.rtHTTP != nil {
		_ = f.rtHTTP.Shutdown(ctx)
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for i, s := range f.servers {
		_ = s.Shutdown(ctx)
		_ = f.https[i].Shutdown(ctx)
	}
	if f.cl != nil {
		f.cl.CloseIdleConnections()
	}
}

func (f *fleet) stats(ctx context.Context) (*api.FleetStatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st api.FleetStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// --- Requests and their execution ------------------------------------------------

// request is one scheduled HTTP call and, after execution, its outcome.
type request struct {
	due     time.Duration // since the window start
	closed  bool          // due when its lane is free (closed loop)
	lane    int
	step    int // rate step the request is offered in
	op      string
	method  string
	path    string
	body    []byte
	session string
	// check validates a 2xx body (see verify); it may record iterations.
	check func(r *request, body []byte) error

	dispatch, done time.Time
	lag            time.Duration
	bytes          int
	replica        string
	data           []byte // 2xx body, until verify
	iterations     int
	err            error

	traceReq, clientSpan uint64 // traced runs only
}

func (r *request) ok() bool { return r.err == nil }

func (r *request) latency(start time.Time) float64 { return ms(r.done.Sub(start.Add(r.due))) }

func newLaneClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// spinBefore is how long before a due time a lane stops sleeping and
// polls the clock instead, so timer wake-up latency does not count as the
// system's.
const spinBefore = time.Millisecond

// execute runs every request of every lane, each lane in its own goroutine
// issuing its requests in due order on its own connection, and returns once
// all have completed.
func execute(ctx context.Context, tr *tracer, base string, reqs []*request, lanes int) time.Time {
	byLane := make([][]*request, lanes)
	for _, r := range reqs {
		byLane[r.lane] = append(byLane[r.lane], r)
	}
	for _, lr := range byLane {
		sort.SliceStable(lr, func(i, j int) bool { return lr[i].due < lr[j].due })
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, lr := range byLane {
		wg.Add(1)
		go func(lr []*request) {
			defer wg.Done()
			cl := newLaneClient()
			defer cl.CloseIdleConnections()
			for _, r := range lr {
				free := time.Now()
				if r.closed {
					r.due = free.Sub(start)
				}
				due := start.Add(r.due)
				if d := time.Until(due) - spinBefore; d > 0 {
					time.Sleep(d)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				r.dispatch = time.Now()
				r.lag = r.dispatch.Sub(due)
				if free.After(due) {
					r.lag = r.dispatch.Sub(free)
				}
				do(ctx, tr, cl, base, r)
				r.done = time.Now()
				if tr != nil {
					root := tr.id()
					req := r.traceReq
					tr.record(span{ID: root, Req: req, Layer: "bench", Op: r.op}, due, r.done)
					tr.record(span{ID: r.clientSpan, Parent: root, Req: req, Layer: "client", Op: r.op}, r.dispatch, r.done)
				}
			}
		}(lr)
	}
	wg.Wait()
	return start
}

// do issues one request and records its outcome on r.
func do(ctx context.Context, tr *tracer, cl *http.Client, base string, r *request) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		r.err = err
		return
	}
	if r.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if tr != nil {
		r.traceReq, r.clientSpan = tr.id(), tr.id()
		traceIDs{r.traceReq, r.clientSpan}.set(hr.Header)
	}
	resp, err := cl.Do(hr)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.bytes, r.replica = len(data), resp.Header.Get("X-Replica")
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode/100 != 2:
		r.err = fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(data))
	default:
		r.data = data
	}
}

// verify runs each successful request's output check. It runs after the
// requests complete, so checking never delays the traffic it checks.
func verify(reqs []*request) {
	for _, r := range reqs {
		if r.err == nil && r.check != nil {
			if err := r.check(r, r.data); err != nil {
				r.err = fmt.Errorf("%s %s: %w", r.method, r.path, err)
			}
		}
		r.data = nil
	}
}

// --- Request builders with their output checks ------------------------------

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// searchCheck accepts a generate or append response whose cost equals the
// in-process reference.
func searchCheck(want float64) func(*request, []byte) error {
	return func(r *request, body []byte) error {
		var resp api.GenerateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		r.iterations = resp.Search.Iterations
		if resp.Cost != api.JSONCost(want) {
			return fmt.Errorf("cost %v, in-process reference %v", resp.Cost, want)
		}
		return nil
	}
}

func generateReq(sqls []string, iters int, seed int64, want float64) *request {
	return &request{
		op: "generate", method: http.MethodPost, path: "/v1/generate",
		body:  jsonBody(api.GenerateRequest{SearchParams: api.SearchParams{Iterations: iters, Seed: seed}, Queries: sqls}),
		check: searchCheck(want),
	}
}

func appendReq(session string, queries []string, iters int, seed int64, want float64) *request {
	return &request{
		op: "append", method: http.MethodPost, path: "/v1/sessions/" + session + "/queries", session: session,
		body:  jsonBody(api.SessionQueriesRequest{SearchParams: api.SearchParams{Iterations: iters, Seed: seed}, Queries: queries}),
		check: searchCheck(want),
	}
}

// interactReq reads the session's current state (the get op load.Replay
// sends) and checks that it is a parsable query with widgets.
func interactReq(session string) *request {
	return &request{
		op: "interact", method: http.MethodPost, path: "/v1/sessions/" + session + "/interact", session: session,
		body: jsonBody(api.InteractRequest{Op: api.OpGet}),
		check: func(_ *request, body []byte) error {
			var resp api.InteractResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if _, err := sqlparser.Parse(resp.SQL); err != nil {
				return fmt.Errorf("current query does not parse: %w", err)
			}
			if len(resp.Widgets) == 0 {
				return errors.New("no widgets")
			}
			return nil
		},
	}
}

// exportReq fetches the session's default (JSON) export and checks that it
// decodes and re-scores to the session's cost.
func exportReq(session string, want float64) *request {
	return &request{
		op: "export", method: http.MethodGet, path: "/v1/sessions/" + session + "/export", session: session,
		check: func(_ *request, body []byte) error {
			f, err := mctsui.LoadInterface(body, mctsui.Screen{})
			if err != nil {
				return fmt.Errorf("export does not decode: %w", err)
			}
			if f.Cost() != want {
				return fmt.Errorf("exported interface costs %v, session cost %v", f.Cost(), want)
			}
			return nil
		},
	}
}

// --- References ----------------------------------------------------------------

// serveOpts are the options the daemon resolves for a request carrying
// only iterations and a seed (its time budget is a ceiling that never
// binds here).
func serveOpts(iters int, seed int64) []mctsui.Option {
	return []mctsui.Option{mctsui.WithIterations(iters), mctsui.WithTimeBudget(time.Minute), mctsui.WithSeed(seed)}
}

// sessionRefs replays a session chain in process with memoization
// disabled — the first append searching with createSeed, the later ones
// with seed — and returns the cost after each append.
func sessionRefs(ctx context.Context, sqls []string, first, iters int, createSeed, seed int64) ([]float64, error) {
	var costs []float64
	create := []mctsui.Option{mctsui.WithSeed(createSeed)}
	err := appendChain(ctx, sqls, first, serveOpts(iters, seed), create, nil, false, func(s appendStep) error {
		costs = append(costs, s.iface.Cost())
		return nil
	})
	return costs, err
}

func generateRef(ctx context.Context, sqls []string, iters int, seed int64) (float64, error) {
	opts := append(serveOpts(iters, seed), mctsui.WithoutInitialCost(), mctsui.WithoutCache())
	f, err := mctsui.New(opts...).Generate(ctx, sqls)
	if err != nil {
		return 0, err
	}
	return f.Cost(), nil
}
