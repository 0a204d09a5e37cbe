package runtime

import (
	"fmt"
	"strings"
	"time"

	"femtoverse/internal/obs"
)

// Trace lane convention: the scheduler's control events live on pid 0,
// and each worker class gets its own process lane with one thread per
// worker - mirroring the simulator's node-lane Gantt and making the
// Perfetto view read like the paper's Figs. 5-7.
const controlPID = 0

// classPID maps a worker class to its trace process lane.
func classPID(c Class) int { return int(c) + 1 }

// poolMetrics holds the pool's metric instruments, resolved once at New.
// With no registry every field is a nil no-op, so the hot paths carry the
// calls unconditionally.
type poolMetrics struct {
	attempts         *obs.Counter
	failures         *obs.Counter
	retries          *obs.Counter
	backfills        *obs.Counter
	watchdogKills    *obs.Counter
	domainCasualties *obs.Counter
	recoveredPanics  *obs.Counter
	refused          *obs.Counter
	attemptSeconds   *obs.Histogram
	queueWaitSeconds *obs.Histogram
}

func newPoolMetrics(r *obs.Registry) poolMetrics {
	return poolMetrics{
		attempts:         r.Counter("runtime.attempts"),
		failures:         r.Counter("runtime.failed_attempts"),
		retries:          r.Counter("runtime.retries"),
		backfills:        r.Counter("runtime.backfills"),
		watchdogKills:    r.Counter("runtime.watchdog_kills"),
		domainCasualties: r.Counter("runtime.domain_casualties"),
		recoveredPanics:  r.Counter("runtime.recovered_panics"),
		refused:          r.Counter("runtime.refused"),
		attemptSeconds:   r.Histogram("runtime.attempt_seconds", nil),
		queueWaitSeconds: r.Histogram("runtime.queue_wait_seconds", nil),
	}
}

// segment is one completed attempt's slot occupancy, relative to the
// pool's allocation clock: the raw material of the live timeline.
type segment struct {
	class      Class
	start, end time.Duration
	slots      int
	backfilled bool
}

// TimelineBucket aggregates class occupancy over one fixed slice of the
// busy window. Fractions are of the class's total workers; Backfill is
// the portion of Busy contributed by backfilled tasks (the idle-time
// recovery the paper quotes, ~25% in Fig. 7).
type TimelineBucket struct {
	Start            time.Duration
	SolveBusy        float64
	SolveBackfill    float64
	ContractBusy     float64
	ContractBackfill float64
}

// Timeline is the live per-class utilization timeline the pool assembles
// from completed attempts: the real-execution analogue of the cluster
// simulator's Gantt chart and the paper's utilization traces (Figs. 5-7).
type Timeline struct {
	// Start is the allocation-elapsed instant of the first bucket;
	// BucketWidth the slice length; Buckets the per-slice occupancy.
	Start           time.Duration
	BucketWidth     time.Duration
	Buckets         []TimelineBucket
	SolveWorkers    int
	ContractWorkers int
}

// timelineBuckets is the resolution of the assembled timeline.
const timelineBuckets = 60

// buildTimeline slices the busy window into fixed buckets and integrates
// each segment's slot-seconds into the slices it overlaps.
func buildTimeline(segs []segment, start, end time.Duration, solveW, contractW int) Timeline {
	tl := Timeline{SolveWorkers: solveW, ContractWorkers: contractW}
	if end <= start || len(segs) == 0 {
		return tl
	}
	n := timelineBuckets
	width := (end - start) / time.Duration(n)
	if width <= 0 {
		width = time.Nanosecond
		n = int((end - start) / width)
	}
	tl.Start = start
	tl.BucketWidth = width
	tl.Buckets = make([]TimelineBucket, n)
	for i := range tl.Buckets {
		tl.Buckets[i].Start = start + time.Duration(i)*width
	}
	for _, s := range segs {
		lo := s.start
		if lo < start {
			lo = start
		}
		hi := s.end
		if hi > end {
			hi = end
		}
		for b := int((lo - start) / width); b < n && tl.Buckets[b].Start < hi; b++ {
			bs := tl.Buckets[b].Start
			be := bs + width
			if bs < lo {
				bs = lo
			}
			if be > hi {
				be = hi
			}
			if be <= bs {
				continue
			}
			// Busy worker-seconds of this segment inside this bucket,
			// normalized to a fraction of the class width over the slice.
			frac := float64(s.slots) * float64(be-bs) / (float64(width) * classWidthOf(s.class, solveW, contractW))
			switch s.class {
			case Solve:
				tl.Buckets[b].SolveBusy += frac
				if s.backfilled {
					tl.Buckets[b].SolveBackfill += frac
				}
			default:
				tl.Buckets[b].ContractBusy += frac
				if s.backfilled {
					tl.Buckets[b].ContractBackfill += frac
				}
			}
		}
	}
	return tl
}

func classWidthOf(c Class, solveW, contractW int) float64 {
	if c == Solve {
		return float64(solveW)
	}
	return float64(contractW)
}

// BusySeconds integrates a class's busy worker-seconds over the timeline:
// the quantity cross-checked against Report.SolveBusy/ContractBusy and
// against the trace's per-lane span durations.
func (tl Timeline) BusySeconds(c Class) float64 {
	w := classWidthOf(c, tl.SolveWorkers, tl.ContractWorkers)
	var sum float64
	for _, b := range tl.Buckets {
		if c == Solve {
			sum += b.SolveBusy
		} else {
			sum += b.ContractBusy
		}
	}
	return sum * tl.BucketWidth.Seconds() * w
}

// glyphFor renders one bucket's busy fraction as a density glyph.
func glyphFor(frac float64) byte {
	switch {
	case frac <= 0.001:
		return '.'
	case frac < 0.25:
		return ':'
	case frac < 0.5:
		return '-'
	case frac < 0.75:
		return '='
	default:
		return '#'
	}
}

// Render draws the timeline as two ASCII utilization rows, one per worker
// class, time flowing right: the quick-look answer to "what did the
// allocation actually do", next to the simulator's Gantt.
func (tl Timeline) Render() string {
	if len(tl.Buckets) == 0 {
		return "(empty timeline)\n"
	}
	var b strings.Builder
	span := time.Duration(len(tl.Buckets)) * tl.BucketWidth
	fmt.Fprintf(&b, "utilization: %d buckets x %v ('.' idle, ':' <25%%, '-' <50%%, '=' <75%%, '#' busy)\n",
		len(tl.Buckets), tl.BucketWidth.Round(time.Microsecond))
	solve := make([]byte, len(tl.Buckets))
	contract := make([]byte, len(tl.Buckets))
	for i, bk := range tl.Buckets {
		solve[i] = glyphFor(bk.SolveBusy)
		contract[i] = glyphFor(bk.ContractBusy)
	}
	fmt.Fprintf(&b, "solve    |%s|\n", string(solve))
	fmt.Fprintf(&b, "contract |%s|\n", string(contract))
	fmt.Fprintf(&b, "window: %v .. %v of the allocation\n",
		tl.Start.Round(time.Microsecond), (tl.Start + span).Round(time.Microsecond))
	return b.String()
}
