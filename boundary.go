package xkprop

// This file is the bounded, fail-safe face of the API: context-aware
// variants of every long-running entry point, the resource-budget types
// they honor, and a recover guard that turns any internal invariant
// violation into an error instead of a crash in the caller's process.
//
// The contract shared by all ...Ctx functions: a nil error is the only
// guarantee that the result is complete. On cancellation (ctx.Err()) or
// budget exhaustion (*BudgetError) the result is the zero value — a
// partial cover or verdict is never returned as if complete.

import (
	"context"
	"fmt"
	"io"

	"xkprop/internal/budget"
	"xkprop/internal/core"
	"xkprop/internal/registry"
	"xkprop/internal/rel"
	"xkprop/internal/stream"
	"xkprop/internal/xmlkey"
)

// Budget caps the resources a bounded call may consume; the zero value is
// unlimited. Attach one to a context with WithBudget and pass it to any
// ...Ctx entry point.
type Budget = budget.Budget

// BudgetError is the typed error returned when a Budget limit is
// exhausted; match it with errors.As.
type BudgetError = budget.Error

// WithBudget returns a context carrying the budget; every ...Ctx entry
// point reads it back out.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return budget.With(ctx, b)
}

// PanicError wraps a panic recovered at the API boundary. The algorithms
// panic only on broken internal invariants ("impossible" states), so a
// PanicError is always a bug report — but it reaches the caller as an
// error, not a crash.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("xkprop: internal panic: %v", e.Value) }

// guard converts a panic into a *PanicError on the named return.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r}
	}
}

// PropagatesCtx is Propagates under a context and budget.
func PropagatesCtx(ctx context.Context, sigma []Key, rule *Rule, fd FD) (ok bool, err error) {
	defer guard(&err)
	return core.PropagatesCtx(ctx, sigma, rule, fd)
}

// MinimumCoverCtx is MinimumCover under a context and budget.
func MinimumCoverCtx(ctx context.Context, sigma []Key, rule *Rule) (cover []FD, err error) {
	defer guard(&err)
	return core.NewEngine(sigma, rule).MinimumCoverCtx(ctx)
}

// NaiveCoverCtx is NaiveCover under a context and budget. Instead of
// NaiveCover's panic on wide schemas it returns a *BudgetError, with the
// field cap configurable via Budget.MaxEnumFields.
func NaiveCoverCtx(ctx context.Context, sigma []Key, rule *Rule) (cover []FD, err error) {
	defer guard(&err)
	return core.NewEngine(sigma, rule).NaiveCoverCtx(ctx)
}

// ImpliesKeyCtx is ImpliesKey under a context and budget
// (Budget.MaxMemoEntries and MaxInternEntries bound the decider's caches).
func ImpliesKeyCtx(ctx context.Context, sigma []Key, phi Key) (ok bool, err error) {
	defer guard(&err)
	return xmlkey.ImpliesCtx(ctx, sigma, phi)
}

// CandidateKeys enumerates all minimal keys of attrs under the FDs; limit
// caps the number returned (0 = no cap) and bounds the search itself.
func CandidateKeys(fds []FD, attrs AttrSet, limit int) []AttrSet {
	return rel.CandidateKeys(fds, attrs, limit)
}

// CandidateKeysCtx is CandidateKeys under a context and budget
// (Budget.MaxCandidateKeys caps candidates explored, not just returned).
// Uniquely among the ...Ctx entry points it returns its partial result
// alongside the error: the keys found so far are each genuinely minimal,
// only the enumeration's completeness is lost.
func CandidateKeysCtx(ctx context.Context, fds []FD, attrs AttrSet, limit int) (keys []AttrSet, err error) {
	defer guard(&err)
	return rel.CandidateKeysCtx(ctx, fds, attrs, limit)
}

// CompiledSchema is a schema compiled once and reused across requests: the
// parsed key set, the parsed transformation, the shared implication decider
// with its interned path universe, and lazily built per-rule engines. See
// SchemaRegistry for the cached, deduplicated way to obtain one.
type CompiledSchema = registry.Artifact

// SchemaRegistry is a content-hash-keyed cache of compiled schemas: each
// distinct (keys, transformation) source pair is parsed and compiled once,
// concurrent first requests are deduplicated singleflight-style, and
// residency is LRU-bounded. This is the serving-path entry point (see
// cmd/xkserve) — repeated analyses over one schema skip parsing, decider
// construction and cover builds entirely.
type SchemaRegistry = registry.Registry

// NewSchemaRegistry builds a registry holding at most maxEntries compiled
// schemas (0 = unbounded); Budget.MaxRegistryEntries is the same knob for
// budget-driven callers.
func NewSchemaRegistry(maxEntries int) *SchemaRegistry { return registry.New(maxEntries) }

// CompileSchema parses and compiles one schema outside any registry. The
// keys text is required; the transformation text may be empty for purely
// key-level work (implication, streaming validation).
func CompileSchema(keysText, transformText string) (cs *CompiledSchema, err error) {
	defer guard(&err)
	return registry.Compile(keysText, transformText)
}

// NewEngineSharing builds an engine for the rule that shares another
// engine's implication decider — its memo table, interned path universe and
// compiled containment kernel — so related rules (the tables of one
// transformation) warm each other's analyses.
func NewEngineSharing(e *Engine, rule *Rule) *Engine {
	return core.NewEngineWithDecider(e.Decider(), rule)
}

// StreamDecodeError is the typed error for a stream breaking mid-document:
// malformed XML, truncation, or the reader failing. Offset says where.
type StreamDecodeError = stream.DecodeError

// StreamValidateCtx is StreamValidate under a context and budget
// (Budget.MaxStreamDepth caps element nesting, Budget.MaxViolations aborts
// once that many violations are collected). The violations found before an
// abort are returned alongside the error.
func StreamValidateCtx(ctx context.Context, r io.Reader, sigma []Key) (vs []StreamViolation, err error) {
	defer guard(&err)
	v := stream.NewValidator(sigma)
	err = v.RunCtx(ctx, r)
	return v.Violations(), err
}
