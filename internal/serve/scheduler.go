package serve

import (
	"fmt"
	"sort"
)

// Fair-share across tenants is stride scheduling: each tenant holds a
// pass value, the dispatcher always picks the backlogged tenant with the
// minimum pass (ties broken by name, so the schedule is a pure function
// of the submission history), and dispatching one configuration advances
// the tenant's pass by strideOne/weight. A weight-2 tenant therefore
// receives two configurations for every one a weight-1 tenant gets when
// both are backlogged - proportional share - while an idle tenant's pass
// is re-based on arrival so it can never hoard credit and starve the
// others. Quotas are enforced at admission (Server.SubmitCampaign), not
// here: an over-quota submission is refused at the door, so the
// scheduler only ever sees work that is allowed to run.
const strideOne = 1 << 16

// checkPriority admits priorities 0 (keep the tenant's weight, initially
// 1) through strideOne. A larger weight would make strideOne/weight zero:
// that tenant's pass would never advance, so it would win every pick and
// starve every other backlogged tenant.
func checkPriority(priority int) error {
	if priority < 0 || priority > strideOne {
		return fmt.Errorf("priority must be in [0, %d] (got %d)", strideOne, priority)
	}
	return nil
}

// tenant is one submitter's scheduling state. Guarded by Server.mu.
type tenant struct {
	name   string
	weight uint64
	pass   uint64
	// queue holds this tenant's campaigns that still have undispatched
	// configurations, in admission order.
	queue []*campaignRun
}

// ensureTenantLocked returns the tenant, creating it on first contact.
// A new or re-activating tenant starts at the minimum pass of the
// currently backlogged tenants, which is the stride-scheduling rule that
// bounds how far anyone can be owed.
func (s *Server) ensureTenantLocked(name string, priority int) *tenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, weight: 1}
		s.tenants[name] = t
		s.tenantNames = append(s.tenantNames, name)
		sort.Strings(s.tenantNames)
	}
	if priority > 0 {
		// The tenant's weight follows its most recent submission.
		t.weight = uint64(priority)
	}
	return t
}

// enqueueLocked adds a campaign to its tenant's backlog, re-basing the
// tenant's pass if it was idle.
func (s *Server) enqueueLocked(t *tenant, cr *campaignRun) {
	if len(t.queue) == 0 {
		if min, ok := s.minPassLocked(); ok && t.pass < min {
			t.pass = min
		}
	}
	t.queue = append(t.queue, cr)
}

// minPassLocked returns the minimum pass over backlogged tenants.
func (s *Server) minPassLocked() (uint64, bool) {
	var min uint64
	found := false
	for _, name := range s.tenantNames {
		t := s.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		if !found || t.pass < min {
			min = t.pass
			found = true
		}
	}
	return min, found
}

// pickTenantLocked returns the backlogged tenant with the minimum pass,
// ties broken by the sorted name order, or nil if nothing is queued.
func (s *Server) pickTenantLocked() *tenant {
	var best *tenant
	for _, name := range s.tenantNames {
		t := s.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass {
			best = t
		}
	}
	return best
}

// dropFromQueueLocked removes a campaign from its tenant's backlog (a
// failed campaign stops dispatching immediately).
func (s *Server) dropFromQueueLocked(cr *campaignRun) {
	t, ok := s.tenants[cr.tenant]
	if !ok {
		return
	}
	for i, q := range t.queue {
		if q == cr {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			return
		}
	}
}
