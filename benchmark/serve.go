package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/obs"
	"femtoverse/internal/serve"
)

// serveWorkload drives the multi-tenant campaign service over real HTTP
// with one closed-loop client: it sends its next campaign only after the
// previous one reached a terminal state, so one campaign is in the system
// at a time and its two configurations fill the server's two solve
// workers. (With two clients the stride pick between two half-dispatched
// campaigns made operation latency bimodal, T or 2T by dispatch order,
// and its median sat on the boundary.) One operation is one campaign,
// POST to terminal state.
func serveWorkload() workload {
	return workload{
		name:  "serve-mix",
		op:    "campaign, POST /v1/campaigns to terminal state",
		setup: setupServe,
	}
}

// tenants and their stride priorities.
var serveTenants = []struct {
	name     string
	priority int
}{{"alpha", 1}, {"beta", 2}, {"gamma", 4}}

// plannedCampaign is one submission of the schedule.
type plannedCampaign struct {
	tenant   string
	priority int
	seed     int64
	// warmOf is the index in the plan of the finished campaign this one
	// duplicates exactly; -1 for a cold campaign.
	warmOf int
}

type serveEnv struct {
	dir  string
	spec core.RealConfig
	// plan is the client's submission list, a pure function of the seed.
	plan []plannedCampaign
	// served is the fingerprint the service returned for plan[0] in the
	// first pass; verify holds it to the in-process campaign.
	served string
	// corrupt damages the reference warm campaigns are compared with.
	corrupt bool

	live *liveServer
}

// liveServer is one server generation: its own state and cache
// directories, registry, listener and HTTP client.
type liveServer struct {
	srv    *serve.Server
	store  *cache.Cache
	reg    *obs.Registry
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	// stopped is set by the first stop; the run loop is the only caller.
	stopped bool
}

func serveSpec(sc scale, seed int64) core.RealConfig {
	spec := core.DefaultRealConfig()
	spec.Dims = [4]int{2, 2, 2, 4}
	spec.NConfigs = 2
	if sc.smoke {
		spec.Params.Ls = 2
	}
	spec.Seed = seed
	spec.Tol = tol
	return spec
}

func setupServe(sc scale, seed int64, dir string, rec *spans) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &serveEnv{dir: dir}

	// Cold, cold, warm, four times over - the 2:1 mix that
	// keeps the median and the 85th percentile inside the cold mode. The
	// tenant pattern submits in proportion to the priorities (2:3:7 of
	// 12), and every warm campaign duplicates another tenant's.
	shape := []int{-1, -1, 0, -1, -1, 3, -1, -1, 6, -1, -1, 9}
	tenantOf := []int{2, 2, 1, 2, 1, 0, 2, 2, 1, 2, 2, 0}
	if sc.smoke {
		shape = []int{-1, 0, -1, 2}
	}
	for k, warmOf := range shape {
		t := serveTenants[tenantOf[k]]
		pc := plannedCampaign{tenant: t.name, priority: t.priority, seed: rng.Int63(), warmOf: warmOf}
		if warmOf >= 0 {
			pc.seed = e.plan[warmOf].seed
		}
		e.plan = append(e.plan, pc)
	}
	e.spec = serveSpec(sc, e.plan[0].seed)

	// Set-up is a server generation brought to the point where it has
	// served a campaign: state and cache directories, pool, listener,
	// and one warm-up campaign on a fixed spec, so the first-request
	// costs (connection, pool spin-up, page faults) are paid and counted
	// here, not in the timed region.
	sp := rec.begin(nil, "serve", "start", 0)
	live, err := startServer(filepath.Join(dir, "warmup"))
	sp.end()
	if err != nil {
		return nil, err
	}
	e.live = live
	sp = rec.begin(nil, "serve", "warmup_campaign", 0)
	out := live.runCampaign(serveSpec(sc, 0), plannedCampaign{tenant: "warmup", priority: 1, warmOf: -1}, nil, 0)
	sp.end()
	if out.problem != "" {
		return nil, errors.Join(fmt.Errorf("warm-up campaign: %s", out.problem), live.stop())
	}
	return e, nil
}

func startServer(dir string) (_ *liveServer, err error) {
	l := &liveServer{reg: obs.NewRegistry(), served: make(chan error, 1)}
	l.store, err = cache.New(cache.Config{Dir: filepath.Join(dir, "cache"), Metrics: l.reg})
	if err != nil {
		return nil, fmt.Errorf("result cache: %w", err)
	}
	l.srv, err = serve.New(context.Background(), serve.Config{
		StateDir: filepath.Join(dir, "state"),
		Cache:    l.store,
		Metrics:  l.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, l.srv.Shutdown(context.Background()))
	}
	l.base = "http://" + ln.Addr().String()
	l.http = &http.Server{Handler: l.srv.Handler()}
	go func() { l.served <- l.http.Serve(ln) }()
	l.client = &http.Client{Transport: &http.Transport{}}
	return l, nil
}

// stop drains the HTTP server, then the campaign service, and waits for
// the accept loop to return. A second call is a no-op: prepare stops a
// generation and, if starting the next one fails, close stops it again.
func (l *liveServer) stop() error {
	if l.stopped {
		return nil
	}
	l.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l.client.CloseIdleConnections()
	err := l.http.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, l.srv.Shutdown(ctx))
}

// prepare gives every pass a fresh server generation over empty state
// and cache directories, outside the timed region: each pass then submits
// the same campaigns against the same cold cache, so passes are
// comparable and their fingerprints must agree bit for bit.
func (e *serveEnv) prepare(i int) error {
	if err := e.live.stop(); err != nil {
		return fmt.Errorf("stop the server generation before pass %d: %w", i, err)
	}
	live, err := startServer(filepath.Join(e.dir, fmt.Sprintf("gen%d", i)))
	if err != nil {
		return err
	}
	e.live = live
	return nil
}

func (e *serveEnv) close() error { return e.live.stop() }

func (e *serveEnv) corruptReference() { e.corrupt = true }

// reference is the fingerprint a warm duplicate of the given finished
// campaign must reproduce.
func (e *serveEnv) reference(original campaignOutcome) string {
	if e.corrupt {
		return "corrupt:" + original.fingerprint
	}
	return original.fingerprint
}

// verify runs the first planned campaign in-process: the service must
// have handed back exactly what the library computes for the same spec.
func (e *serveEnv) verify() []string {
	res, err := core.RunReal(e.spec)
	if err != nil {
		return []string{fmt.Sprintf("core.RunReal: %v", err)}
	}
	if fp := campaignFingerprint(e.spec, res.C2, res.CFH); fp != e.served {
		return []string{fmt.Sprintf("served fingerprint %.12s differs from the in-process campaign's %.12s", e.served, fp)}
	}
	return nil
}

// campaignOutcome is what a client saw of one campaign.
type campaignOutcome struct {
	latency, submit, status time.Duration
	fingerprint             string
	problem                 string
}

// runCampaign is one closed-loop operation: submit, follow the NDJSON
// event stream to a terminal event, fetch the final status.
func (l *liveServer) runCampaign(spec core.RealConfig, pc plannedCampaign, rec *spans, opID int64) (out campaignOutcome) {
	root := rec.begin(nil, rootLayer, "campaign", opID)
	defer root.end()
	t0 := time.Now()
	defer func() { out.latency = time.Since(t0) }()

	prec := strings.ToLower(spec.Prec.String())
	req := serve.SubmitRequest{Tenant: pc.tenant, Priority: pc.priority, Name: fmt.Sprintf("op%d", opID),
		Spec: serve.SpecRequest{Dims: &spec.Dims, Ls: &spec.Params.Ls, NConfigs: &spec.NConfigs,
			Seed: &pc.seed, Tol: &spec.Tol, Prec: &prec}}
	body, err := json.Marshal(req)
	if err != nil {
		out.problem = err.Error()
		return out
	}

	sp := rec.begin(root, "serve", "submit", opID)
	ts := time.Now()
	var st serve.CampaignStatus
	code, err := l.doJSON(http.MethodPost, "/v1/campaigns", body, &st)
	out.submit = time.Since(ts)
	sp.end()
	if err != nil || code != http.StatusCreated {
		out.problem = fmt.Sprintf("submit: status %d: %v", code, err)
		return out
	}

	sp = rec.begin(root, "serve", "events", opID)
	terminal, err := l.followEvents(st.ID)
	sp.end()
	if err != nil || terminal != "complete" {
		out.problem = fmt.Sprintf("events: terminal %q: %v", terminal, err)
		return out
	}

	sp = rec.begin(root, "serve", "status", opID)
	ts = time.Now()
	code, err = l.doJSON(http.MethodGet, "/v1/campaigns/"+st.ID, nil, &st)
	out.status = time.Since(ts)
	sp.end()
	switch {
	case err != nil || code != http.StatusOK:
		out.problem = fmt.Sprintf("status: status %d: %v", code, err)
	case st.State != "complete" || st.Done != st.Total || st.Fingerprint == "":
		out.problem = fmt.Sprintf("campaign %s ended %s %d/%d", st.ID, st.State, st.Done, st.Total)
	case len(st.Geff) == 0:
		out.problem = fmt.Sprintf("campaign %s completed without an effective coupling", st.ID)
	}
	out.fingerprint = st.Fingerprint
	return out
}

func (l *liveServer) doJSON(method, path string, body []byte, v interface{}) (int, error) {
	req, err := http.NewRequest(method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// followEvents reads the campaign's NDJSON stream until the server
// closes it and returns the kind of the last event.
func (l *liveServer) followEvents(id string) (string, error) {
	resp, err := l.client.Get(l.base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return last, fmt.Errorf("events: bad line %q: %w", sc.Text(), err)
		}
		last = ev.Kind
	}
	return last, sc.Err()
}

func (e *serveEnv) pass(_ int, rec *spans) (*passResult, error) {
	live := e.live
	p := newPassResult()
	var outcomes []campaignOutcome
	var digests []string
	for k, pc := range e.plan {
		o := live.runCampaign(e.spec, pc, rec, int64(k+1))
		outcomes = append(outcomes, o)
		p.ops = append(p.ops, o.latency)
		p.sample("serve.submit_http_p50_ms", o.submit.Seconds()*1e3)
		p.sample("serve.status_http_p50_ms", o.status.Seconds()*1e3)
		if pc.warmOf >= 0 {
			p.sample("serve.warm_turnaround_p50_ms", o.latency.Seconds()*1e3)
		} else {
			p.sample("serve.cold_turnaround_p50_s", o.latency.Seconds())
		}
		switch {
		case o.problem != "":
			p.fail("op %d: %s", k, o.problem)
		case pc.warmOf >= 0 && o.fingerprint != e.reference(outcomes[pc.warmOf]):
			p.fail("op %d: warm fingerprint differs from its cold original", k)
		}
		digests = append(digests, o.fingerprint)
	}
	p.fingerprint = digestStrings(digests)
	if e.served == "" {
		e.served = outcomes[0].fingerprint
	}

	snap := live.reg.Snapshot()
	for _, name := range []string{"core.configs_solved", "core.solver_iterations", "core.solver_flops",
		"serve.campaigns_completed", "serve.configs_recorded", "serve.refused_quota"} {
		v, _ := snap.CounterValue(name)
		p.counts[name] = float64(v)
	}
	cs := live.store.Stats()
	p.counts["cache.hits"] = float64(cs.Hits)
	p.counts["cache.misses"] = float64(cs.Misses)
	p.counts["cache.computes"] = float64(cs.Computes)
	p.counts["cache.coalesced"] = float64(cs.Coalesced)
	p.counts["serve.dispatch_share_err"] = dispatchShareErr(live.srv.DispatchLog())
	return p, nil
}

// dispatchShareErr is the largest distance between a tenant's share of
// the dispatched configurations and its stride-weight share.
func dispatchShareErr(log []string) float64 {
	if len(log) == 0 {
		return 0
	}
	got := map[string]int{}
	for _, entry := range log {
		tenant, _, _ := strings.Cut(entry, "/")
		got[tenant]++
	}
	weights := 0
	for _, t := range serveTenants {
		weights += t.priority
	}
	worst := 0.0
	for _, t := range serveTenants {
		d := float64(got[t.name])/float64(len(log)) - float64(t.priority)/float64(weights)
		worst = math.Max(worst, math.Abs(d))
	}
	return worst
}

func (e *serveEnv) layerMetrics(m metricSet, d *tracedData, host hostInfo) error {
	first := d.first
	m["solver.solves"] = 24 * first.counts["core.configs_solved"]
	m["solver.iterations"] = first.counts["core.solver_iterations"]
	for _, name := range []string{"serve.campaigns_completed", "serve.configs_recorded", "serve.refused_quota",
		"serve.dispatch_share_err", "cache.hits", "cache.misses", "cache.computes", "cache.coalesced"} {
		m[name] = first.counts[name]
	}
	if lookups := m["cache.hits"] + m["cache.misses"]; lookups > 0 {
		m["cache.hit_ratio"] = m["cache.hits"] / lookups
	}
	for _, name := range []string{"serve.submit_http_p50_ms", "serve.status_http_p50_ms",
		"serve.cold_turnaround_p50_s", "serve.warm_turnaround_p50_ms"} {
		m[name] = median(d.samples[name])
	}

	// What the server regenerates per cold campaign, and the kernels its
	// solves run, probed in-process on the same spec.
	t0 := time.Now()
	ens, err := core.EnsembleFor(e.spec)
	if err != nil {
		return err
	}
	m["gauge.ensemble_s"] = time.Since(t0).Seconds()
	m["gauge.sweeps"] = float64(e.spec.ThermSweeps + e.spec.NConfigs*e.spec.GapSweeps)
	return probeMobius(m, host, e.spec, ens[0])
}
