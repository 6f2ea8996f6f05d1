package core

import "hermes/internal/telemetry"

// Instruments are the telemetry handles for Algorithm 1 decisions. Nil
// handles record nothing; see package telemetry.
type Instruments struct {
	// Recomputes counts schedule_and_sync invocations (controller recomputes).
	Recomputes *telemetry.Counter
	// Syncs counts successful kernel selection-map updates (syscalls).
	Syncs *telemetry.Counter
	// SyncBatched counts schedule_and_sync invocations coalesced into a
	// quantum's cached result (Config.SyncQuantum) — calls that paid neither
	// a WST scan nor a map-update syscall.
	SyncBatched *telemetry.Counter
	// WSTReads counts Worker Status Table rows read by scheduling passes.
	WSTReads *telemetry.Counter
	// EmptySets counts passes that selected nobody (kernel hash fallback).
	EmptySets *telemetry.Counter
	// Passed observes how many workers survived the whole cascade per pass.
	Passed *telemetry.Histogram
}

type options struct {
	groups int
	key    GroupKey
}

// Option configures New.
type Option func(*options)

// WithGroups splits the fleet into exactly nGroups independent groups
// (two-level deployment, §7), overriding the automatic ceil(n/64) split.
// n must divide evenly into spans of at most 64.
func WithGroups(nGroups int) Option {
	return func(o *options) { o.groups = nGroups }
}

// WithGroupKey sets the level-1 dispatch key for multi-group deployments
// (GroupByTupleHash balances; GroupByLocalityHash keeps same-destination
// traffic in one group, Fig. A6). One group has no level-1 pick to key.
func WithGroupKey(key GroupKey) Option {
	return func(o *options) { o.key = key }
}
