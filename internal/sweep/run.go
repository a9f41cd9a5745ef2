package sweep

import (
	"errors"
	"fmt"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
)

// ErrMismatch reports a store whose metadata describes a different sweep
// than the spec resuming it.
var ErrMismatch = errors.New("store describes a different sweep")

// Sweep is a sweep ready to run: the fleet positioned where simulation
// starts (the range's first wearer, or the store's checkpoint on resume),
// the aggregator primed with every record already committed, and the
// telemetry store the records stream into (nil when the sweep keeps no
// store).
type Sweep struct {
	Fleet *fleet.Fleet
	Agg   *fleet.StreamAggregator
	Store *telemetry.Writer
}

// Open builds the normalized spec and attaches its telemetry store at
// path; an empty path runs the sweep without a store. With resume false
// the store is created afresh (truncating any file at path). With resume
// true the checkpointed store at path is reopened in the oldest format
// that can represent the sweep, refused with ErrMismatch if its
// metadata describes a different sweep, and its committed records are
// replayed into the aggregator; the fleet then starts at the checkpoint,
// so the finished report is bit-identical to an uninterrupted run.
func (s *Spec) Open(path string, resume bool) (*Sweep, error) {
	f, meta, err := s.Build()
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Fleet: f, Agg: fleet.NewStreamAggregator(f.Span)}
	switch {
	case path == "":
	case !resume:
		sw.Store, err = telemetry.Create(path, meta)
	default:
		sw.Store, err = resumeStore(path, meta, sw.Agg)
		if err == nil {
			f.Start = sw.Store.NextWearer()
		}
	}
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// resumeStore reopens the checkpointed store at path, guards that it
// describes the sweep meta describes and replays its committed prefix
// into agg.
func resumeStore(path string, meta telemetry.Meta, agg *fleet.StreamAggregator) (*telemetry.Writer, error) {
	store, err := telemetry.Resume(path)
	if err != nil {
		return nil, err
	}
	got := store.Meta()
	meta.BlockSize = got.BlockSize // block size is the store's to keep
	meta.Version = telemetry.AdoptVersion(got.Version, meta.Cells, meta.Feedback, meta.Series())
	if got != meta {
		store.Abort()
		return nil, fmt.Errorf("%w: %s\n  store: %+v\n  spec:  %+v", ErrMismatch, path, got, meta)
	}
	r, err := telemetry.Open(path)
	if err != nil {
		store.Abort()
		return nil, err
	}
	replayed, err := fleet.Replay(r, agg)
	r.Close()
	if err != nil {
		store.Abort()
		return nil, err
	}
	// A shard store's records begin at its first wearer, not at 0.
	if first, _ := got.Range(); first+replayed != store.NextWearer() {
		store.Abort()
		return nil, fmt.Errorf("store %s replayed %d records from wearer %d but checkpoint says next is %d",
			path, replayed, first, store.NextWearer())
	}
	return store, nil
}

// Outcome is how a Run ended.
type Outcome int

const (
	// Done: every wearer simulated and the store closed.
	Done Outcome = iota
	// Interrupted: stopped at a record boundary, checkpoint kept for a
	// later resume.
	Interrupted
	// Cancelled: like Interrupted, but the caller disowned the sweep.
	Cancelled
	// Failed: the engine or the store returned an error.
	Failed
)

func (o Outcome) String() string {
	switch o {
	case Done:
		return "done"
	case Interrupted:
		return "interrupted"
	case Cancelled:
		return "cancelled"
	default:
		return "failed"
	}
}

// Sentinels stopSink injects into the engine; Run maps them to outcomes.
var (
	errCancelled = errors.New("sweep: cancelled")
	errStopped   = errors.New("sweep: stopped")
)

// stopSink checks the cancel and stop channels before every record: once
// either trips, the next record returns the matching sentinel and the
// engine aborts with every previously consumed record already a valid
// committed prefix.
type stopSink struct {
	inner        fleet.Sink
	cancel, stop <-chan struct{}
}

func (s stopSink) Consume(rec telemetry.Record) error {
	// Two separate non-blocking checks, not one select: with both
	// channels tripped a single select would pick at random, and
	// cancel-first priority is what makes a sweep cancelled during a stop
	// end cancelled, not resumable.
	select {
	case <-s.cancel:
		return errCancelled
	default:
	}
	select {
	case <-s.stop:
		return errStopped
	default:
	}
	return s.inner.Consume(rec)
}

// Run streams the remaining wearers into the store and the aggregator
// until the sweep finishes or one of the channels closes (a nil channel
// never does). A finished sweep closes its store; any other outcome
// aborts it, keeping the last committed checkpoint. The error is
// non-nil exactly when the outcome is Failed.
func (sw *Sweep) Run(cancel, stop <-chan struct{}) (Outcome, fleet.Perf, error) {
	var sink fleet.Sink = sw.Agg
	if sw.Store != nil {
		// Store first, then aggregate: the committed prefix on disk never
		// runs ahead of what the report has folded in.
		sink = fleet.Tee(sw.Store, sw.Agg)
	}
	perf, err := sw.Fleet.Stream(stopSink{inner: sink, cancel: cancel, stop: stop})
	out := Failed
	switch {
	case err == nil:
		out = Done
	case errors.Is(err, errCancelled):
		out, err = Cancelled, nil
	case errors.Is(err, errStopped):
		out, err = Interrupted, nil
	}
	if sw.Store == nil {
		return out, perf, err
	}
	if out != Done {
		sw.Store.Abort()
		return out, perf, err
	}
	if err := sw.Store.Close(); err != nil {
		return Failed, perf, err
	}
	return Done, perf, nil
}
