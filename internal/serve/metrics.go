package serve

import (
	"io"
	"time"

	"emsim/internal/core"
	"emsim/internal/obs"
)

// metrics is the server's observable state. Every counter, gauge and
// histogram lives in a per-server obs.Registry, rendered at GET /metrics
// in Prometheus text format. The registry is per-server — not
// process-global — so tests can build many servers without
// duplicate-registration panics.
type metrics struct {
	reg *obs.Registry

	queueDepth *obs.Gauge   // jobs accepted but not yet picked up
	inFlight   *obs.Gauge   // jobs currently executing on a worker
	requests   *obs.Counter // requests accepted into the queue
	rejected   *obs.Counter // requests shed with 429 (queue full)
	cancelled  *obs.Counter // jobs that ended with a cancelled context
	cycles     *obs.Counter // total simulated clock cycles

	// reqLatency holds the per-endpoint request-duration histograms,
	// keyed by the job's endpoint label ("" falls back to "other").
	reqLatency map[string]*obs.Histogram

	trains jobMetrics // /v1/train job lifecycle

	// phaseLatency records per-phase training campaign durations, by
	// core.Phase index.
	phaseLatency []*obs.Histogram

	defends jobMetrics // /v1/defend job lifecycle

	tvlaTraces   *obs.Counter // traces simulated by /v1/tvla assessments
	defendTraces *obs.Counter // traces simulated by defense-evaluation campaigns
	// tvlaAnalysis records the statistic-extraction (snapshot) phase of a
	// /v1/tvla assessment — with streaming accumulators this is the only
	// analysis cost left; simulation dominates the rest of the request.
	tvlaAnalysis *obs.Histogram

	// The shared measurement cache's statistics, set at scrape time.
	cacheHits    *obs.Gauge
	cacheMisses  *obs.Gauge
	cacheEntries *obs.Gauge
}

// endpoints are the request-duration histogram labels; jobs carry one.
var endpoints = []string{"simulate", "tvla", "other"}

func newMetrics(phases []string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:        reg,
		queueDepth: reg.Gauge("emsim_queue_depth", "jobs accepted but not yet picked up"),
		inFlight:   reg.Gauge("emsim_jobs_in_flight", "jobs currently executing on a worker"),
		requests:   reg.Counter("emsim_requests_accepted_total", "requests accepted into the queue"),
		rejected:   reg.Counter("emsim_requests_rejected_total", "requests shed with 429 (queue full)"),
		cancelled:  reg.Counter("emsim_requests_cancelled_total", "jobs that ended with a cancelled context"),
		cycles:     reg.Counter("emsim_simulated_cycles_total", "total simulated clock cycles"),

		trains:  newJobMetrics(reg, "train", "training"),
		defends: newJobMetrics(reg, "defend", "defense-evaluation"),

		tvlaTraces:   reg.Counter("emsim_tvla_traces_total", "traces simulated by /v1/tvla assessments"),
		defendTraces: reg.Counter("emsim_defend_traces_total", "traces simulated by defense-evaluation campaigns"),
		tvlaAnalysis: reg.Histogram("emsim_tvla_analysis_seconds", "statistic-extraction time of a /v1/tvla assessment", nil),
	}
	m.reqLatency = make(map[string]*obs.Histogram, len(endpoints))
	help := "request execution time on a worker, by endpoint"
	for _, ep := range endpoints {
		m.reqLatency[ep] = reg.Histogram("emsim_request_duration_seconds", help, nil, "endpoint", ep)
		help = ""
	}
	help = "training campaign phase duration"
	for _, p := range phases {
		m.phaseLatency = append(m.phaseLatency,
			reg.Histogram("emsim_train_phase_duration_seconds", help, nil, "phase", p))
		help = ""
	}

	m.cacheHits = reg.Gauge("emsim_measurement_cache_hits", "training measurement-cache lookups served from the cache")
	m.cacheMisses = reg.Gauge("emsim_measurement_cache_misses", "training measurement-cache lookups that measured afresh")
	m.cacheEntries = reg.Gauge("emsim_measurement_cache_entries", "artifacts held by the training measurement cache")
	return m
}

// observeRequest records one completed job's execution time into the
// endpoint's histogram.
func (m *metrics) observeRequest(endpoint string, d time.Duration) {
	h := m.reqLatency[endpoint]
	if h == nil {
		h = m.reqLatency["other"]
	}
	h.Observe(d.Seconds())
}

// observePhase records one training phase's campaign duration.
func (m *metrics) observePhase(phase int, d time.Duration) {
	if phase >= 0 && phase < len(m.phaseLatency) {
		m.phaseLatency[phase].Observe(d.Seconds())
	}
}

// writePrometheus renders the registry for GET /metrics, first setting
// the cache gauges from the cache's current statistics.
func (m *metrics) writePrometheus(w io.Writer, cache core.CacheStats) error {
	m.cacheHits.Set(cache.Hits)
	m.cacheMisses.Set(cache.Misses)
	m.cacheEntries.Set(int64(cache.Entries))
	return m.reg.WritePrometheus(w)
}
