// Package budget defines resource budgets for the long-running entry
// points of the repository — implication deciding, FD propagation, cover
// construction, candidate-key enumeration and streaming validation — and
// the typed error returned when a budget is exhausted.
//
// The polynomial headline algorithms of the paper coexist with
// deliberately exponential baselines (Algorithm naive, candidate-key
// enumeration) and with a streaming validator that ingests untrusted XML.
// At production scale none of these may be allowed to run, allocate or
// recurse without bound: a Budget caps the resources one call may consume,
// and a context.Context carries both the wall-clock deadline and the
// Budget through every layer (see With/From). Call sites check the budget
// at loop granularity, so exceeding a cap surfaces as a prompt, typed
// *Error instead of an unbounded burn.
//
// The zero Budget is unlimited: every field set to 0 means "no cap on
// this resource", so callers opt into exactly the bounds they need.
package budget

import (
	"context"
	"fmt"
)

// Resource names one bounded resource class.
type Resource string

const (
	// MemoEntries caps the implication decider's shared memo table (proved
	// and refuted sub-goals across all queries of one Decider).
	MemoEntries Resource = "memo entries"
	// InternEntries caps the interned path universe (distinct paths
	// hash-consed by the decider's xpath.Interner).
	InternEntries Resource = "interner entries"
	// StreamDepth caps the open-element depth of the streaming validator.
	StreamDepth Resource = "stream depth"
	// Violations caps the violations one run collects: the streaming
	// validator's key violations, and in a shredding run its key and FD
	// violations together. The run aborts once the count reaches the cap.
	Violations Resource = "violations"
	// CandidateKeys caps the number of candidate superkeys the
	// Lucchesi–Osborn enumeration explores (explored, not returned: the
	// frontier is where the exponential blowup lives).
	CandidateKeys Resource = "candidate-key enumeration"
	// EnumFields caps the schema width Algorithm naive accepts; the
	// candidate space is 2^(fields-1)·fields, so this is the knob that
	// keeps the exponential baseline from being a denial of service.
	EnumFields Resource = "enumeration fields"
	// RegistryEntries caps the compiled-schema registry of the serving
	// subsystem: how many (keys, transformation) artifacts — each holding
	// a decider memo, an interned path universe and lazily built covers —
	// may be resident before the LRU evicts.
	RegistryEntries Resource = "registry entries"
	// ClosureEntries caps the closure-set cache of a compiled FD index
	// (rel.FDIndex.EnableCache). Like RegistryEntries it bounds a cache:
	// exceeding it evicts rather than errors.
	ClosureEntries Resource = "closure-cache entries"
	// QueueDepth caps the admission queue of the serving subsystem: how
	// many requests may wait for an execution slot before new arrivals
	// are shed with a typed busy rejection (resilience.Queue). Unlike the
	// cache caps it sheds load rather than evicting or erroring the
	// requests already admitted.
	QueueDepth Resource = "admission-queue depth"
	// Tuples caps the raw tuples one shredding run may expand (counted
	// before deduplication — the Cartesian-product expansion is where the
	// blowup lives). Exceeding it ABORTS the run with a typed error; tuples
	// are results, not cache entries, so there is nothing to evict.
	Tuples Resource = "shredded tuples"
	// FDIndexEntries caps the per-FD hash indexes the shredding pipeline
	// keeps to enforce the propagated cover online. Exceeding it ABORTS
	// the run rather than evicting: evicting an index entry would forget a
	// seen LHS group and silently weaken the FD guarantee, so this cap —
	// unlike the cache caps — is never evict-on-full.
	FDIndexEntries Resource = "fd-index entries"
)

// Error reports that a call stopped because a resource budget was
// exhausted. It is returned by every budgeted entry point as a *Error
// (the public API re-exports the type as xkprop.BudgetError), so callers
// can distinguish "the answer is no" from "the engine refused to spend
// more" with errors.As.
//
// An Error never accompanies a result presented as complete: cover
// construction returns a nil cover alongside it, enumeration returns the
// partial prefix found so far, and the streaming validator keeps the
// violations collected before the cap (see each call site's contract).
type Error struct {
	// Op is the operation that hit the cap, e.g. "minimum cover".
	Op string
	// Resource is the exhausted resource class.
	Resource Resource
	// Limit is the configured cap that was reached.
	Limit int
}

func (e *Error) Error() string {
	return fmt.Sprintf("budget: %s: %s limit %d exhausted", e.Op, e.Resource, e.Limit)
}

// Exceeded builds the typed error for one exhausted resource.
func Exceeded(op string, r Resource, limit int) *Error {
	return &Error{Op: op, Resource: r, Limit: limit}
}

// Budget caps the resources one call may consume. The zero value is
// unlimited; each field set to a positive value enables that cap. Wall
// clock is not part of the Budget: deadlines travel on the
// context.Context itself (context.WithTimeout / WithDeadline), and the
// budgeted entry points check ctx.Err() at the same loop granularity as
// the resource caps.
type Budget struct {
	// MaxMemoEntries caps the implication decider's memo table.
	MaxMemoEntries int
	// MaxInternEntries caps the interned path universe.
	MaxInternEntries int
	// MaxStreamDepth caps the streaming validator's element depth.
	MaxStreamDepth int
	// MaxViolations aborts a run once it has collected this many
	// violations: key violations in stream validation, key and FD
	// violations together in a shredding run.
	MaxViolations int
	// MaxCandidateKeys caps explored candidates in key enumeration.
	MaxCandidateKeys int
	// MaxEnumFields caps the schema width of Algorithm naive
	// (0 = the package default of DefaultEnumFields).
	MaxEnumFields int
	// MaxRegistryEntries caps the resident artifacts of a compiled-schema
	// registry (registry.New); unlike the other caps it bounds a cache, so
	// exceeding it evicts rather than errors.
	MaxRegistryEntries int
	// MaxClosureEntries caps the closure-set cache each engine layers over
	// its compiled FD index (0 = rel.DefaultClosureEntries). It bounds a
	// cache, so exceeding it evicts rather than errors.
	MaxClosureEntries int
	// MaxQueueDepth caps the admission queue in front of the serving
	// subsystem's execution slots (0 = unbounded queue). Arrivals past
	// the cap are rejected immediately with a typed busy error and a
	// Retry-After hint rather than queued.
	MaxQueueDepth int
	// MaxTuples caps the raw tuples a shredding run expands, counted
	// before deduplication. Abort semantics: exceeding it stops the run
	// with a typed error and no partial sink output is presented as
	// complete.
	MaxTuples int
	// MaxFDIndexEntries caps the total entries across the shredding
	// pipeline's per-FD hash indexes. Abort semantics, never evict:
	// dropping an entry would un-remember a seen LHS group and could let a
	// real FD violation pass unnoticed (see Resource FDIndexEntries).
	MaxFDIndexEntries int
}

// DefaultEnumFields is the schema-width cap Algorithm naive applies when
// no budget overrides it: 2^24 candidate LHS subsets per RHS attribute is
// the most the baseline is ever allowed to enumerate.
const DefaultEnumFields = 24

// IsZero reports whether the budget caps nothing.
func (b *Budget) IsZero() bool {
	return b == nil || *b == Budget{}
}

// ctxKey is the context key for the carried *Budget.
type ctxKey struct{}

// With returns a context carrying the budget; every budgeted entry point
// recovers it with From. A nil ctx is treated as context.Background so
// callers can build budget-only contexts in one call.
func With(ctx context.Context, b Budget) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, ctxKey{}, &b)
}

// From extracts the budget carried by ctx, or nil if none (including a
// nil ctx). The returned pointer is shared — callers must not mutate it.
func From(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(ctxKey{}).(*Budget)
	return b
}
