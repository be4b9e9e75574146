package obs

// Observer bundles a registry and a tracer — the handle the engine, the
// match runtime and the CLIs share. A nil *Observer disables all
// observability: every accessor returns nil, and all metric/trace methods
// on those nil results are no-ops.
type Observer struct {
	Reg *Registry
	Trc *Tracer
}

// New returns an enabled observer with a fresh registry and no tracer: a
// trace is kept only for a -trace file (Setup), so a long-running server
// holding one keeps no event per task or per request.
func New() *Observer {
	return &Observer{Reg: NewRegistry()}
}

// Counter resolves a registry counter (nil when disabled).
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Gauge resolves a registry gauge (nil when disabled).
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name)
}

// Histogram resolves a registry histogram (nil when disabled).
func (o *Observer) Histogram(name string, bounds ...float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, bounds...)
}

// Tracer returns the tracer (nil when disabled).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trc
}

// MatchHooks is the pre-resolved instrumentation handed to the parallel
// match runtime. Nothing here is touched per task: the runtime records its
// tasks and publishes counters, cost observations and the cycle's spans
// once per cycle, after the workers have exited. A nil *MatchHooks
// disables match instrumentation entirely.
type MatchHooks struct {
	// Tasks counts executed match tasks (match_tasks_total).
	Tasks *Counter
	// Steals counts pops from another process's queue (queue_steals_total).
	Steals *Counter
	// FailedPops counts pop attempts that found every queue empty while
	// tasks were still pending (queue_failed_pops_total) — genuine
	// idleness, the paper's §6.1 metric.
	FailedPops *Counter
	// TermProbes counts quiescence-detection probes: failed pops observed
	// with zero pending tasks, one per worker per cycle
	// (queue_term_probes_total). Counted apart from FailedPops so
	// termination detection can't skew the contention figures.
	TermProbes *Counter
	// TaskCost is the modeled per-task cost distribution in µs
	// (match_task_cost_us).
	TaskCost *Histogram
	// Panics counts worker panics recovered by the supervision layer
	// (worker_panics_total); each poisons its cycle, which the engine then
	// retries serially.
	Panics *Counter
	// Watchdogs counts quiescence-watchdog expiries (watchdog_fires_total),
	// one per cycle the deadline poisoned.
	Watchdogs *Counter
	// Injected counts faults fired by the internal/fault injector
	// (faults_injected_total).
	Injected *Counter
	// Trc, when non-nil, holds each cycle's task records as one lazy
	// Batch, rendered as one span per task on the worker's lane (tid =
	// worker+1) only when the trace is written. Its presence is also what
	// makes the runtime time every task instead of a sample.
	Trc *Tracer
	// Pid is the trace process lane the match goroutines render under.
	Pid int
}

// MatchHooks builds the runtime's hook set under the given trace pid; nil
// when the observer is disabled.
func (o *Observer) MatchHooks(pid int) *MatchHooks {
	if o == nil {
		return nil
	}
	return &MatchHooks{
		Tasks:      o.Counter("match_tasks_total"),
		Steals:     o.Counter("queue_steals_total"),
		FailedPops: o.Counter("queue_failed_pops_total"),
		TermProbes: o.Counter("queue_term_probes_total"),
		TaskCost:   o.Histogram("match_task_cost_us", ExpBuckets(100, 2, 10)...),
		Panics:     o.Counter("worker_panics_total"),
		Watchdogs:  o.Counter("watchdog_fires_total"),
		Injected:   o.Counter("faults_injected_total"),
		Trc:        o.Trc,
		Pid:        pid,
	}
}
