package server

// The analysis endpoints. Every handler follows one shape: decode the
// request, fetch (or compile) the schema artifact from the registry, run
// the bounded ...Ctx analysis under the request context, and return a
// JSON-marshalable payload. Errors flow back to instrument/classify, so a
// handler never writes to the ResponseWriter itself.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"xkprop/internal/core"
	"xkprop/internal/registry"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/sqlgen"
	"xkprop/internal/stream"
	"xkprop/internal/xmlkey"
)

// schemaRequest carries the source texts every analysis endpoint accepts.
// Rule names the table rule to analyze (optional when the transformation
// has exactly one).
type schemaRequest struct {
	Keys      string `json:"keys"`
	Transform string `json:"transform"`
	Rule      string `json:"rule"`
}

func decodeJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(into); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{Status: http.StatusRequestEntityTooLarge, Kind: "input",
				Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return inputErr("bad request JSON: %v", err)
	}
	return nil
}

// artifact resolves the registry artifact for a request, translating a
// missing key set into a 400.
func (s *Server) artifact(ctx context.Context, keys, transformText string) (*registry.Artifact, error) {
	if strings.TrimSpace(keys) == "" {
		return nil, inputErr(`missing "keys": expected a key set, one key per line`)
	}
	return s.reg.Get(ctx, keys, transformText)
}

// engine resolves the propagation engine for a schemaRequest, translating
// rule-lookup failures into 400s.
func (s *Server) engine(ctx context.Context, req *schemaRequest) (*core.Engine, error) {
	if strings.TrimSpace(req.Transform) == "" {
		return nil, inputErr(`missing "transform": this endpoint analyzes a table rule`)
	}
	art, err := s.artifact(ctx, req.Keys, req.Transform)
	if err != nil {
		return nil, err
	}
	eng, err := art.Engine(req.Rule)
	if err != nil {
		return nil, inputErr("%v", err)
	}
	return eng, nil
}

// handleImplies decides Σ ⊨ φ.
func (s *Server) handleImplies(ctx context.Context, r *http.Request) (any, error) {
	var req struct {
		Keys string `json:"keys"`
		Key  string `json:"key"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	art, err := s.artifact(ctx, req.Keys, "")
	if err != nil {
		return nil, err
	}
	phi, err := xmlkey.Parse(req.Key)
	if err != nil {
		return nil, err
	}
	ok, err := art.Decider().ImpliesCtx(ctx, phi)
	if err != nil {
		return nil, err
	}
	return map[string]any{"implied": ok, "key": phi.String()}, nil
}

// handlePropagate decides Σ ⊨_σ (X → Y) with Algorithm propagation, or
// with the GminimumCover check when "check" is "gmin".
func (s *Server) handlePropagate(ctx context.Context, r *http.Request) (any, error) {
	var req struct {
		schemaRequest
		FD    string `json:"fd"`
		Check string `json:"check"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	eng, err := s.engine(ctx, &req.schemaRequest)
	if err != nil {
		return nil, err
	}
	fd, err := rel.ParseFD(eng.Rule().Schema, req.FD)
	if err != nil {
		return nil, &apiError{Status: http.StatusBadRequest, Kind: "parse", Message: err.Error()}
	}
	var ok bool
	switch req.Check {
	case "", "propagation":
		req.Check = "propagation"
		ok, err = eng.PropagatesCtx(ctx, fd)
	case "gmin":
		ok, err = eng.GPropagatesCtx(ctx, fd)
	default:
		return nil, inputErr(`bad "check" %q: want propagation or gmin`, req.Check)
	}
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"propagated": ok,
		"relation":   eng.Rule().Schema.Name,
		"fd":         fd.Format(eng.Rule().Schema),
		"check":      req.Check,
	}, nil
}

// handleCover computes (or serves the cached) minimum cover of the rule's
// relation.
func (s *Server) handleCover(ctx context.Context, r *http.Request) (any, error) {
	var req schemaRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	eng, err := s.engine(ctx, &req)
	if err != nil {
		return nil, err
	}
	cover, err := eng.CachedCoverCtx(ctx)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"relation": eng.Rule().Schema.Name,
		"cover":    eng.CoverAsStrings(cover),
		"size":     len(cover),
	}, nil
}

// handleCandidates enumerates the minimal keys of the rule's relation
// under the propagated cover. The underlying enumeration can return a
// sound partial prefix on abort; the wire contract is stricter — an abort
// discards the prefix and returns only the typed error body.
func (s *Server) handleCandidates(ctx context.Context, r *http.Request) (any, error) {
	var req struct {
		schemaRequest
		Limit int `json:"limit"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Limit < 0 {
		return nil, inputErr(`bad "limit" %d: want >= 0`, req.Limit)
	}
	eng, err := s.engine(ctx, &req.schemaRequest)
	if err != nil {
		return nil, err
	}
	schema := eng.Rule().Schema
	// The engine reuses its cached cover and compiled FD index, so a warm
	// schema pays neither the cover build nor index construction here.
	keys, err := eng.CandidateKeysCtx(ctx, req.Limit)
	if err != nil {
		return nil, err
	}
	names := make([][]string, len(keys))
	for i, k := range keys {
		names[i] = schema.Names(k)
	}
	return map[string]any{
		"relation":   schema.Name,
		"candidates": names,
		"count":      len(names),
	}, nil
}

// handleDDL renders the rule's relation as SQL after BCNF or 3NF
// refinement of the propagated cover — the end-to-end pipeline of the
// paper's Examples 1.2/3.1 as one request.
func (s *Server) handleDDL(ctx context.Context, r *http.Request) (any, error) {
	var req struct {
		schemaRequest
		Normalize string `json:"normalize"`
		Dialect   string `json:"dialect"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	eng, err := s.engine(ctx, &req.schemaRequest)
	if err != nil {
		return nil, err
	}
	cover, err := eng.CachedCoverCtx(ctx)
	if err != nil {
		return nil, err
	}
	if !sqlgen.KnownDialect(req.Dialect) {
		return nil, inputErr(`bad "dialect" %q: want one of %s`,
			req.Dialect, strings.Join(sqlgen.Dialects, ", "))
	}
	schema := eng.Rule().Schema
	var frags []rel.Fragment
	switch req.Normalize {
	case "", "bcnf":
		req.Normalize = "bcnf"
		frags = rel.BCNF(cover, schema.All())
	case "3nf":
		frags = rel.ThreeNF(cover, schema.All())
	default:
		return nil, inputErr(`bad "normalize" %q: want bcnf or 3nf`, req.Normalize)
	}
	opts := sqlgen.Options{Dialect: req.Dialect}
	tables := sqlgen.FromFragments(schema, frags, opts)
	return map[string]any{
		"relation":  schema.Name,
		"normalize": req.Normalize,
		"fragments": len(frags),
		"ddl":       sqlgen.DDL(tables, opts),
	}, nil
}

// handleValidate validates an XML document against a key set in one
// streaming pass. Two request shapes:
//
//   - application/json: {"keys": ..., "document": ...} — the document
//     travels in the JSON body;
//   - any other content type: the body IS the XML stream, fed to the
//     validator as it arrives, and the key set comes url-encoded in the
//     ?keys= query parameter. This is the large-document path: memory is
//     proportional to open contexts, not document size.
func (s *Server) handleValidate(ctx context.Context, r *http.Request) (any, error) {
	var sigmaText string
	var doc io.Reader
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Keys     string `json:"keys"`
			Document string `json:"document"`
		}
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		if req.Document == "" {
			return nil, inputErr(`missing "document"`)
		}
		sigmaText, doc = req.Keys, strings.NewReader(req.Document)
	} else {
		sigmaText, doc = r.URL.Query().Get("keys"), r.Body
	}
	art, err := s.artifact(ctx, sigmaText, "")
	if err != nil {
		return nil, err
	}
	v := stream.NewValidator(art.Sigma)
	if err := v.RunCtx(ctx, doc); err != nil {
		return nil, err
	}
	vs := v.Violations()
	out := make([]map[string]any, len(vs))
	for i, viol := range vs {
		out[i] = map[string]any{
			"key":     viol.Key.String(),
			"message": viol.String(),
			"offset":  viol.Offset,
		}
	}
	return map[string]any{"ok": len(vs) == 0, "count": len(vs), "violations": out}, nil
}

// handleShred shreds an XML document through the streaming pipeline,
// validating the key set and enforcing every rule's propagated minimum
// cover online in the same token pass. The two body shapes of
// /v1/validate apply, extended with the transformation:
//
//   - application/json: {"keys", "transform", "document"};
//   - any other content type: the body IS the XML stream, with ?keys=
//     and ?transform= url-encoded.
//
// Tuples are counted, deduplicated and checked, then discarded — the
// service returns the verdict and tallies, never the data. Abort-
// soundness: a budget or deadline abort yields only the typed error
// body; a partial violation list is never presented as the verdict.
func (s *Server) handleShred(ctx context.Context, r *http.Request) (any, error) {
	var keysText, trText string
	var doc io.Reader
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Keys      string `json:"keys"`
			Transform string `json:"transform"`
			Document  string `json:"document"`
		}
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		if req.Document == "" {
			return nil, inputErr(`missing "document"`)
		}
		keysText, trText, doc = req.Keys, req.Transform, strings.NewReader(req.Document)
	} else {
		q := r.URL.Query()
		keysText, trText, doc = q.Get("keys"), q.Get("transform"), r.Body
	}
	if strings.TrimSpace(trText) == "" {
		return nil, inputErr(`missing "transform": shredding needs table rules`)
	}
	art, err := s.artifact(ctx, keysText, trText)
	if err != nil {
		return nil, err
	}
	// One propagated cover per rule; the artifact's engines share a
	// decider, so a warm schema pays nothing here.
	covers := map[string][]rel.FD{}
	for _, rule := range art.Transform.Rules {
		eng, err := art.Engine(rule.Schema.Name)
		if err != nil {
			return nil, inputErr("%v", err)
		}
		cover, err := eng.CachedCoverCtx(ctx)
		if err != nil {
			return nil, err
		}
		covers[rule.Schema.Name] = cover
	}
	res, err := shred.Run(ctx, art.Transform, doc, shred.Discard{}, shred.Options{
		Sigma:   art.Sigma,
		Covers:  covers,
		Metrics: s.set,
	})
	if err != nil {
		return nil, err
	}
	kvs := make([]map[string]any, len(res.StreamViolations))
	for i, viol := range res.StreamViolations {
		kvs[i] = map[string]any{
			"key":     viol.Key.String(),
			"message": viol.String(),
			"offset":  viol.Offset,
		}
	}
	fdvs := res.Violations
	if fdvs == nil {
		fdvs = []shred.FDViolation{}
	}
	return map[string]any{
		"ok":             res.OK(),
		"accepted":       res.Accepted(),
		"tuples":         res.Tuples(),
		"tables":         res.Tables,
		"key_violations": kvs,
		"fd_violations":  fdvs,
	}, nil
}
