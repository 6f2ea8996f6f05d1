package l7lb

import "time"

// Work is one application-layer request as it crosses the simulated kernel:
// the workload generator attaches it as the payload of a readable event, and
// the worker charges itself Cost of virtual CPU to process it. The classes
// mirror the paper's processing tasks (§2.1).
type Work struct {
	// ArrivalNS is the virtual time the request reached the LB (data
	// delivery); end-to-end latency is completion − arrival.
	ArrivalNS int64
	// Cost is the CPU time the worker spends on this request (routing,
	// TLS, compression, copying — request-dependent, invisible to the
	// kernel: the paper's core observation, §3).
	Cost time.Duration
	// Size is the request size in bytes (Table 1).
	Size int
	// RespSize is the response size in bytes.
	RespSize int
	// Close requests connection teardown after the response.
	Close bool
	// Probe marks the health probes of Fig. 11.
	Probe bool
	// ProbeSrc tags which prober issued a probe (RegisterProbeSink tag;
	// 0 = untagged), so concurrent probers keep exact separate accounting.
	ProbeSrc int32
	// Tenant is the tenant port this request belongs to.
	Tenant uint16
}
