package proxy

import (
	"hermes/internal/telemetry"
)

// Instruments is the proxy's telemetry bundle (the proxy.* catalog in
// docs/TELEMETRY.md). All handles are nil-safe: a zero Instruments records
// nothing, so the proxy runs identically with telemetry off.
type Instruments struct {
	// RequestsServed counts proxied requests per worker.
	RequestsServed *telemetry.CounterVec
	// RequestLatencyNS observes end-to-end request latency.
	RequestLatencyNS *telemetry.Histogram
	// UpstreamErrors counts failed upstream exchanges (after retries).
	UpstreamErrors *telemetry.Counter
	// UpstreamDials counts upstream connections opened; UpstreamReused
	// exchanges sent on a pooled idle connection; UpstreamStaleReplays
	// requests replayed on a fresh dial because a pooled connection was
	// dead before any reply byte.
	UpstreamDials        *telemetry.Counter
	UpstreamReused       *telemetry.Counter
	UpstreamStaleReplays *telemetry.Counter

	// BackendRequests / BackendErrors / BackendActive are per-backend
	// request, error, and in-flight counts.
	BackendRequests *telemetry.CounterVec
	BackendErrors   *telemetry.CounterVec
	BackendActive   *telemetry.GaugeVec
	// BackendHealthy is 1 while the backend is healthy.
	BackendHealthy *telemetry.GaugeVec

	// HealthProbes / HealthProbeFailures count active probes.
	HealthProbes        *telemetry.Counter
	HealthProbeFailures *telemetry.Counter
	// HealthTransitions counts health verdict flips (either direction,
	// active or passive).
	HealthTransitions *telemetry.Counter

	// CircuitOpens / CircuitHalfOpens / CircuitCloses count breaker
	// transitions; CircuitRejections counts picks refused by open circuits
	// (the request went elsewhere or got 503).
	CircuitOpens      *telemetry.Counter
	CircuitHalfOpens  *telemetry.Counter
	CircuitCloses     *telemetry.Counter
	CircuitRejections *telemetry.Counter

	// RetryAttempts counts retry attempts; RetryRecovered requests saved by
	// a retry; RetryExhausted requests that failed every allowed attempt.
	RetryAttempts  *telemetry.Counter
	RetryRecovered *telemetry.Counter
	RetryExhausted *telemetry.Counter

	// Unavailable counts requests refused 503 because no backend was
	// pickable — the moment backend health gates the steering decision.
	Unavailable *telemetry.Counter

	// DrainForcedCloses counts connections force-closed because graceful
	// shutdown exceeded its drain deadline.
	DrainForcedCloses *telemetry.Counter
}

// newInstruments registers the proxy.* catalog on reg (nil reg → zero
// bundle, every handle a no-op).
func newInstruments(reg *telemetry.Registry, workers, backends int) Instruments {
	if reg == nil {
		return Instruments{}
	}
	m := func(name, unit string) telemetry.Metric {
		return telemetry.Metric{Name: name, Layer: "proxy", Unit: unit}
	}
	return Instruments{
		RequestsServed:   reg.CounterVec(m("proxy.worker.requests_served", "reqs"), workers),
		RequestLatencyNS: reg.Histogram(m("proxy.request_latency_ns", "ns"), telemetry.DurationBuckets()),
		UpstreamErrors:   reg.Counter(m("proxy.upstream_errors", "errors")),

		UpstreamDials:        reg.Counter(m("proxy.upstream.dials", "conns")),
		UpstreamReused:       reg.Counter(m("proxy.upstream.reused", "reqs")),
		UpstreamStaleReplays: reg.Counter(m("proxy.upstream.stale_replays", "reqs")),

		BackendRequests: reg.CounterVec(m("proxy.backend.requests", "reqs"), backends),
		BackendErrors:   reg.CounterVec(m("proxy.backend.errors", "errors"), backends),
		BackendActive:   reg.GaugeVec(m("proxy.backend.active", "reqs"), backends),
		BackendHealthy:  reg.GaugeVec(m("proxy.backend.healthy", "bool"), backends),

		HealthProbes:        reg.Counter(m("proxy.health.probes", "probes")),
		HealthProbeFailures: reg.Counter(m("proxy.health.probe_failures", "probes")),
		HealthTransitions:   reg.Counter(m("proxy.health.transitions", "flips")),

		CircuitOpens:      reg.Counter(m("proxy.circuit.opens", "transitions")),
		CircuitHalfOpens:  reg.Counter(m("proxy.circuit.half_opens", "transitions")),
		CircuitCloses:     reg.Counter(m("proxy.circuit.closes", "transitions")),
		CircuitRejections: reg.Counter(m("proxy.circuit.rejections", "picks")),

		RetryAttempts:  reg.Counter(m("proxy.retry.attempts", "attempts")),
		RetryRecovered: reg.Counter(m("proxy.retry.recovered", "reqs")),
		RetryExhausted: reg.Counter(m("proxy.retry.exhausted", "reqs")),

		Unavailable:       reg.Counter(m("proxy.unavailable", "reqs")),
		DrainForcedCloses: reg.Counter(m("proxy.drain.forced_closes", "conns")),
	}
}
