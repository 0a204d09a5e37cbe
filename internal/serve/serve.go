// Package serve turns the campaign core into a long-running multi-tenant
// service: campaigns are submitted over HTTP, scheduled onto one shared
// job-runtime pool with stride-based fair share across tenants, journaled
// to a write-ahead log per campaign, and deduplicated across tenants
// through the content-addressed result cache. The server reuses the
// runtime's two-phase drain for zero-downtime restarts: shutdown stops
// admission, gives in-flight solves the drain grace to land in their
// journals, and a restarted server over the same state directory resumes
// every incomplete campaign bit-for-bit.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/obs"
	"femtoverse/internal/validate"

	jobrt "femtoverse/internal/runtime"
)

// ErrDraining is returned for submissions that arrive after shutdown
// began: the server is refusing admission, not failing.
var ErrDraining = errors.New("serve: draining, not accepting new campaigns")

// ErrNotFound is returned for operations on unknown campaign IDs.
var ErrNotFound = errors.New("serve: no such campaign")

// Config shapes a Server. StateDir is required; everything else has a
// usable default.
type Config struct {
	// StateDir holds one journal (<id>.fwal) plus one metadata sidecar
	// (<id>.json) per campaign. A server started over a non-empty state
	// directory resumes every incomplete campaign found there.
	StateDir string
	// SolveWorkers and ContractWorkers size the shared pool's worker
	// classes (defaults 2 and 1).
	SolveWorkers    int
	ContractWorkers int
	// Cache, when non-nil, is the shared content-addressed result store:
	// identical solves submitted by different tenants (or different
	// server generations over the same cache directory) coalesce or hit
	// instead of recomputing.
	Cache *cache.Cache
	// Metrics receives the server's counters and the core solver-work
	// counters; nil-safe. /metrics renders its snapshot.
	Metrics *obs.Registry
	// DefaultQuota is the admission quota: the maximum number of
	// unfinished configurations one tenant may have in the system
	// (default 64).
	DefaultQuota int
	// DrainGrace bounds shutdown's soft-drain phase, exactly as in the
	// job runtime (default 2s): in-flight solves get this long to finish
	// and journal before they are stranded.
	DrainGrace time.Duration
	// StartPaused holds the dispatcher until ResumeDispatch, so tests
	// (and operators staging a batch) can make the dispatch order a pure
	// function of the submission set.
	StartPaused bool
}

func (c Config) withDefaults() Config {
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = 2
	}
	if c.ContractWorkers <= 0 {
		c.ContractWorkers = 1
	}
	if c.DefaultQuota <= 0 {
		c.DefaultQuota = 64
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 2 * time.Second
	}
	return c
}

// Validate checks a Config through the shared flag/request validator.
func (c Config) Validate() error {
	var errs []error
	if strings.TrimSpace(c.StateDir) == "" {
		errs = append(errs, errors.New("state dir: must be non-empty"))
	}
	errs = append(errs,
		validate.PositiveInt("solve workers", c.SolveWorkers),
		validate.PositiveInt("contract workers", c.ContractWorkers),
		validate.PositiveInt("default quota", c.DefaultQuota),
		validate.PositiveDuration("drain grace", c.DrainGrace))
	return validate.All(errs...)
}

// Server is the multi-tenant campaign service. One dispatcher goroutine
// feeds one shared runtime pool; everything else (admission, status,
// events, metrics) is driven by callers.
type Server struct {
	cfg   Config
	pool  *jobrt.Pool
	store *cache.Cache
	reg   *obs.Registry

	// submitMu serializes admissions so the quota check and the
	// journal/sidecar creation of one submission are atomic with respect
	// to other submissions. It is never held together with mu's critical
	// sections that block.
	submitMu sync.Mutex

	mu          sync.Mutex
	cond        *sync.Cond
	tenants     map[string]*tenant
	tenantNames []string
	campaigns   map[string]*campaignRun
	order       []string
	serial      int
	nextTaskID  int
	outstanding int
	hold        bool
	draining    bool
	closed      bool
	dispatchLog []string

	dispatcherDone chan struct{}
}

// New builds a server, resumes any journaled campaigns found in
// StateDir, and starts the dispatcher.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid config:\n%w", err)
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	pool, err := jobrt.New(ctx, jobrt.Config{
		SolveWorkers:    cfg.SolveWorkers,
		ContractWorkers: cfg.ContractWorkers,
		Budget:          jobrt.Budget{DrainGrace: cfg.DrainGrace},
		// Metrics deliberately not attached: the pool's attempt-duration
		// histograms are timing-dependent, and /metrics promises a
		// deterministic rendering for a fixed workload.
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:            cfg,
		pool:           pool,
		store:          cfg.Cache,
		reg:            cfg.Metrics,
		tenants:        map[string]*tenant{},
		campaigns:      map[string]*campaignRun{},
		hold:           cfg.StartPaused,
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.resume(); err != nil {
		pool.Close()
		return nil, err
	}
	go s.dispatcher()
	return s, nil
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".fwal")
}

func (s *Server) sidecarPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".json")
}

// resume scans the state directory and rebuilds every campaign found
// there: complete ones are finalized (fingerprint, effective coupling),
// incomplete ones re-enter their tenant's queue with the journaled
// prefix already recorded. Scanning is in sorted filename order, so the
// rebuilt scheduling state is deterministic.
func (s *Server) resume() error {
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("serve: scan state dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		id := strings.TrimSuffix(name, ".json")
		sc, err := readSidecar(s.sidecarPath(id))
		if err != nil {
			s.reg.Counter("serve.resume_errors").Inc()
			continue
		}
		j, camp, err := core.OpenJournal(s.journalPath(id), 1)
		if err != nil {
			s.reg.Counter("serve.resume_errors").Inc()
			continue
		}
		cr := newCampaignRun(id, sc.Tenant, sc.Priority, sc.Name, camp.Spec)
		cr.camp = camp
		cr.journal = j
		var n int
		if _, err := fmt.Sscanf(id, "c%06d", &n); err == nil && n > s.serial {
			s.serial = n
		}
		s.mu.Lock()
		s.campaigns[id] = cr
		s.order = append(s.order, id)
		if camp.Complete() {
			s.finalizeLocked(cr)
			s.mu.Unlock()
			s.closeJournal(cr)
		} else {
			cr.advanceNext()
			if camp.Done() > 0 {
				cr.state = stateRunning
			}
			t := s.ensureTenantLocked(cr.tenant, cr.priority)
			s.enqueueLocked(t, cr)
			s.appendEventLocked(cr, "resumed", fmt.Sprintf(
				"campaign %s resumed from journal (%d/%d configurations recorded)",
				id, camp.Done(), camp.Spec.NConfigs))
			s.mu.Unlock()
			s.reg.Counter("serve.campaigns_resumed").Inc()
		}
	}
	return nil
}

// readSidecar reads a campaign's sidecar and holds it to the rules a
// submission is held to: a file on disk is outside input as much as a
// request is, and a priority past strideOne would give its tenant a stride
// of zero, which starves every other tenant.
func readSidecar(path string) (sidecar, error) {
	var sc sidecar
	data, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if err := decodeJSONStrict(data, &sc); err != nil {
		return sc, err
	}
	if err := errors.Join(checkTenant(sc.Tenant), checkPriority(sc.Priority)); err != nil {
		return sc, fmt.Errorf("serve: sidecar %s: %w", path, err)
	}
	return sc, nil
}

// SubmitCampaign admits one campaign: quota check, journal and sidecar
// creation, then enqueue. The returned error is ErrDraining after
// shutdown began and wraps runtime.ErrRefused when the tenant is over
// quota - admission refusal, deliberately the same vocabulary as the
// pool's allocation-budget refusals. A priority outside [0, 65536], or a
// spec core.RealConfig.Validate rejects, is refused before anything is
// written.
func (s *Server) SubmitCampaign(tenant string, priority int, name string, spec core.RealConfig) (CampaignStatus, error) {
	if err := checkPriority(priority); err != nil {
		return CampaignStatus{}, fmt.Errorf("serve: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return CampaignStatus{}, fmt.Errorf("serve: %w", err)
	}
	s.submitMu.Lock()
	defer s.submitMu.Unlock()

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.reg.Counter("serve.refused_draining").Inc()
		return CampaignStatus{}, ErrDraining
	}
	quota := s.cfg.DefaultQuota
	if used := s.unfinishedLocked(tenant); used+spec.NConfigs > quota {
		s.mu.Unlock()
		s.reg.Counter("serve.refused_quota").Inc()
		return CampaignStatus{}, fmt.Errorf(
			"serve: tenant %q over quota (%d unfinished + %d requested > %d): %w",
			tenant, used, spec.NConfigs, quota, jobrt.ErrRefused)
	}
	s.serial++
	id := fmt.Sprintf("c%06d", s.serial)
	s.mu.Unlock()

	// Disk work outside mu: the write-ahead journal and its sidecar.
	j, err := core.CreateJournal(s.journalPath(id), spec, 1)
	if err != nil {
		return CampaignStatus{}, fmt.Errorf("serve: create journal: %w", err)
	}
	if err := writeSidecar(s.sidecarPath(id), sidecar{ID: id, Tenant: tenant, Priority: priority, Name: name}); err != nil {
		if cerr := j.Close(); cerr != nil {
			s.reg.Counter("serve.journal_errors").Inc()
		}
		return CampaignStatus{}, fmt.Errorf("serve: write sidecar: %w", err)
	}

	cr := newCampaignRun(id, tenant, priority, name, spec)
	cr.camp = core.NewCampaign(spec)
	cr.journal = j

	s.mu.Lock()
	s.campaigns[id] = cr
	s.order = append(s.order, id)
	t := s.ensureTenantLocked(tenant, priority)
	s.enqueueLocked(t, cr)
	s.appendEventLocked(cr, "submitted", fmt.Sprintf(
		"campaign %s submitted by %s (%d configurations, priority %d)",
		id, tenant, spec.NConfigs, priority))
	st := s.statusLocked(cr)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.reg.Counter("serve.campaigns_submitted").Inc()
	return st, nil
}

// unfinishedLocked counts the tenant's admitted-but-unfinished
// configurations: the quantity the quota bounds.
func (s *Server) unfinishedLocked(tenant string) int {
	n := 0
	for _, id := range s.order {
		cr := s.campaigns[id]
		if cr.tenant != tenant || cr.terminal() {
			continue
		}
		n += cr.spec.NConfigs - cr.camp.Done()
	}
	return n
}

// Status returns the polling view of one campaign.
func (s *Server) Status(id string) (CampaignStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cr, ok := s.campaigns[id]
	if !ok {
		return CampaignStatus{}, ErrNotFound
	}
	return s.statusLocked(cr), nil
}

// List returns every campaign in admission order.
func (s *Server) List() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.campaigns[id]))
	}
	return out
}

func (s *Server) statusLocked(cr *campaignRun) CampaignStatus {
	st := CampaignStatus{
		ID:          cr.id,
		Tenant:      cr.tenant,
		Name:        cr.name,
		Priority:    cr.priority,
		State:       cr.state,
		Done:        cr.camp.Done(),
		Total:       cr.spec.NConfigs,
		Fingerprint: cr.fingerprint,
		Geff:        append([]float64(nil), cr.geff...),
		GeffErr:     append([]float64(nil), cr.geffErr...),
	}
	if cr.failed != nil {
		st.Error = cr.failed.Error()
	}
	return st
}

// Events returns the campaign's events after the given sequence number,
// the channel closed on the next append, and whether the campaign is
// terminal (no further events will ever arrive).
func (s *Server) Events(id string, after int) ([]Event, <-chan struct{}, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cr, ok := s.campaigns[id]
	if !ok {
		return nil, nil, false, ErrNotFound
	}
	var out []Event
	for _, e := range cr.events {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out, cr.eventCh, cr.terminal(), nil
}

// WriteTrace renders the campaign's Chrome trace.
func (s *Server) WriteTrace(id string, w io.Writer) error {
	s.mu.Lock()
	cr, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	return cr.tracer.WriteChromeTrace(w)
}

// MetricsText renders the deterministic text form of the registry
// snapshot.
func (s *Server) MetricsText() string {
	return s.reg.Snapshot().Text()
}

// DispatchLog returns the global dispatch order, one entry per
// dispatched configuration ("tenant/campaign/cfgNNN"). For a fixed
// submission set with the dispatcher paused, the log is the stride
// schedule exactly.
func (s *Server) DispatchLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.dispatchLog...)
}

// ResumeDispatch releases a StartPaused server's dispatcher.
func (s *Server) ResumeDispatch() {
	s.mu.Lock()
	s.hold = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// appendEventLocked appends one event and wakes the streamers.
func (s *Server) appendEventLocked(cr *campaignRun, kind, msg string) {
	cr.events = append(cr.events, Event{Seq: len(cr.events) + 1, Kind: kind, Msg: msg})
	close(cr.eventCh)
	cr.eventCh = make(chan struct{})
}

// dispatchItem is one configuration picked by the scheduler, carried
// out of the lock for pool submission.
type dispatchItem struct {
	cr      *campaignRun
	cfg     int
	solveID int
}

// dispatcher is the single scheduling loop: wait until a configuration
// may be dispatched, pick it under the lock, submit the solve+contract
// pair to the pool outside the lock.
func (s *Server) dispatcher() {
	defer close(s.dispatcherDone)
	s.mu.Lock()
	for {
		for !s.closed && !s.canDispatchLocked() {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		it := s.takeLocked()
		s.mu.Unlock()
		s.submitPair(it)
		s.mu.Lock()
	}
}

func (s *Server) canDispatchLocked() bool {
	if s.hold || s.draining || s.outstanding >= s.cfg.SolveWorkers {
		return false
	}
	return s.pickTenantLocked() != nil
}

// takeLocked picks the next configuration per the stride schedule and
// charges the tenant's pass.
func (s *Server) takeLocked() dispatchItem {
	t := s.pickTenantLocked()
	cr := t.queue[0]
	i := cr.next
	cr.next++
	cr.advanceNext()
	if cr.next >= cr.spec.NConfigs {
		t.queue = t.queue[1:]
	}
	if cr.state == stateQueued {
		cr.state = stateRunning
	}
	t.pass += strideOne / t.weight
	s.outstanding++
	id := s.nextTaskID
	s.nextTaskID += 2
	s.dispatchLog = append(s.dispatchLog, fmt.Sprintf("%s/%s/cfg%03d", t.name, cr.id, i))
	return dispatchItem{cr: cr, cfg: i, solveID: id}
}

// submitPair hands one configuration's solve task and its dependent
// contract-class finalizer to the pool. A refusal (the pool started
// draining between the scheduling decision and the submission) leaves
// the configuration undone; the journal resume covers it next run.
func (s *Server) submitPair(it dispatchItem) {
	err := s.pool.Submit(jobrt.Task{
		ID:    it.solveID,
		Name:  fmt.Sprintf("%s/solve/%03d", it.cr.id, it.cfg),
		Class: jobrt.Solve,
		Cost:  1,
		Run:   s.runSolve(it.cr, it.cfg),
	})
	if err == nil {
		err = s.pool.Submit(jobrt.Task{
			ID:        it.solveID + 1,
			Name:      fmt.Sprintf("%s/finalize/%03d", it.cr.id, it.cfg),
			Class:     jobrt.Contract,
			Cost:      0.05,
			DependsOn: []int{it.solveID},
			Run:       s.runFinalize(it.cr),
		})
		if err != nil {
			// The solve is in; only the finalizer was refused. Completion
			// is then finalized by a later configuration's finalizer or by
			// the resume scan - nothing recorded is lost.
			s.reg.Counter("serve.dispatch_errors").Inc()
		}
		return
	}
	s.reg.Counter("serve.dispatch_errors").Inc()
	s.mu.Lock()
	s.outstanding--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runSolve builds the solve-class task body for one configuration: the
// cached solve, the journal append, then the in-memory record.
func (s *Server) runSolve(cr *campaignRun, i int) func(ctx context.Context) (interface{}, error) {
	return func(tctx context.Context) (interface{}, error) {
		sc := obs.NewScope(cr.tracer, 1, 1+i)
		sp := sc.Begin("serve", fmt.Sprintf("solve %03d", i), nil)
		c2, cfh, _, err := core.SolveConfigCached(tctx, cr.spec, i, cr.fieldFor(i), s.store, s.reg)
		sp.End()
		if err != nil {
			s.solveFailed(cr, i, err)
			return nil, err
		}
		if err := cr.journal.Append(i, c2, cfh); err != nil {
			s.reg.Counter("serve.journal_errors").Inc()
			s.solveFailed(cr, i, err)
			return nil, err
		}
		s.solveDone(cr, i, c2, cfh)
		return nil, nil
	}
}

func (s *Server) solveDone(cr *campaignRun, i int, c2, cfh []float64) {
	s.mu.Lock()
	cr.camp.C2[i] = c2
	cr.camp.CFH[i] = cfh
	s.outstanding--
	s.appendEventLocked(cr, "config", fmt.Sprintf(
		"configuration %03d recorded (%d/%d)", i, cr.camp.Done(), cr.spec.NConfigs))
	s.cond.Broadcast()
	s.mu.Unlock()
	s.reg.Counter("serve.configs_recorded").Inc()
}

// solveFailed distinguishes the drain unwinding in-flight work (the
// configuration is stranded, not failed: the journal resume re-runs it)
// from a genuine solve error (the campaign fails and stops dispatching).
func (s *Server) solveFailed(cr *campaignRun, i int, err error) {
	stranded := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	s.mu.Lock()
	if s.draining {
		stranded = true
	}
	s.outstanding--
	if stranded {
		s.appendEventLocked(cr, "stranded", fmt.Sprintf(
			"configuration %03d stranded by drain; a restarted server resumes it", i))
	} else if cr.state != stateFailed {
		cr.state = stateFailed
		cr.failed = err
		s.dropFromQueueLocked(cr)
		s.appendEventLocked(cr, "failed", fmt.Sprintf("configuration %03d: %v", i, err))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if stranded {
		s.reg.Counter("serve.configs_stranded").Inc()
	} else {
		s.reg.Counter("serve.solve_failures").Inc()
	}
}

// runFinalize builds the contract-class task body: when its campaign's
// last correlator pair has been recorded, seal the campaign -
// fingerprint, effective coupling, journal close.
func (s *Server) runFinalize(cr *campaignRun) func(ctx context.Context) (interface{}, error) {
	return func(context.Context) (interface{}, error) {
		s.mu.Lock()
		fin := cr.state == stateRunning && cr.camp.Complete()
		if fin {
			// Counted before the "complete" event is published, so a
			// client that has seen the event also sees the count.
			s.reg.Counter("serve.campaigns_completed").Inc()
			s.finalizeLocked(cr)
		}
		s.mu.Unlock()
		if fin {
			s.closeJournal(cr)
		}
		return nil, nil
	}
}

// finalizeLocked seals a complete campaign in memory. The journal close
// (file I/O) is the caller's, outside the lock.
func (s *Server) finalizeLocked(cr *campaignRun) {
	cr.state = stateComplete
	cr.fingerprint = cr.camp.Fingerprint()
	geff, geffErr, err := cr.camp.Geff()
	if err == nil {
		cr.geff = geff
		cr.geffErr = geffErr
	} else {
		s.reg.Counter("serve.geff_errors").Inc()
	}
	// All solves are done; the ensemble (if one was ever generated) is
	// dead weight now.
	cr.ensemble = nil
	s.appendEventLocked(cr, "complete", fmt.Sprintf(
		"campaign %s complete; fingerprint %s", cr.id, cr.fingerprint))
	s.cond.Broadcast()
}

func (s *Server) closeJournal(cr *campaignRun) {
	cr.closeOnce.Do(func() {
		if err := cr.journal.Sync(); err != nil {
			s.reg.Counter("serve.journal_errors").Inc()
		}
		if err := cr.journal.Close(); err != nil {
			s.reg.Counter("serve.journal_errors").Inc()
		}
	})
}

// Shutdown is the two-phase drain: stop admission and dispatch, drain
// the pool (in-flight solves get DrainGrace to finish and journal, then
// are stranded), and sync every journal. It returns once the pool has
// settled and the journals are durable; ctx bounds the wait. Stranded
// and refused work is not an error - a restarted server resumes it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	<-s.dispatcherDone
	s.pool.Drain("shutdown")
	s.pool.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := s.pool.Wait(); err != nil {
			// Genuine task failures surfaced at the end of the allocation;
			// refused/stranded work is already filtered out by Wait.
			s.reg.Counter("serve.pool_failures").Inc()
		}
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = ctx.Err()
	}

	s.mu.Lock()
	runs := make([]*campaignRun, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.campaigns[id])
	}
	s.mu.Unlock()
	for _, cr := range runs {
		s.closeJournal(cr)
	}
	return waitErr
}
