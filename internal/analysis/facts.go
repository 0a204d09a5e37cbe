package analysis

import (
	"encoding/json"
	"fmt"
)

// This file is femtolint's fact mechanism: the piece that turns the suite
// from five intraprocedural passes into an interprocedural analysis. A
// fact is a JSON-serializable summary an analyzer exports about the
// package it just analyzed (for dettaint: which functions transitively
// read nondeterministic inputs). Facts ride the `go vet` vetx protocol:
// cmd/go hands every compilation unit the vetx file of each direct
// import (vetConfig.PackageVetx) and collects the unit's own vetx output,
// so facts flow through the build graph in dependency order with cmd/go
// doing all the scheduling and caching. Because each unit re-exports the
// facts it imported alongside its own (see MergeFacts), direct-import
// visibility is enough to make the flow transitive.
//
// The in-process analysistest harness threads the same Facts values
// through Target.Imports directly, so fixtures exercise the identical
// code path minus the serialization.

// PackageFacts maps analyzer name -> that analyzer's serialized fact for
// one package. Analyzers that export nothing simply have no entry.
type PackageFacts map[string]json.RawMessage

// Facts maps package import path -> the facts exported for it. A nil
// Facts behaves as empty everywhere.
type Facts map[string]PackageFacts

// vetxSchema versions the fact file format. A reader that sees a
// different schema treats the file as empty rather than erroring: the
// -V=full buildID handshake already guarantees cmd/go never feeds one
// femtolint build the vetx files of another, so a mismatch can only come
// from hand-built test configs.
const vetxSchema = "femtolint-facts/v1"

// vetxFile is the on-disk shape of a vetx fact file.
type vetxFile struct {
	Schema string `json:"schema"`
	Facts  Facts  `json:"facts"`
}

// EncodeFacts renders facts as a deterministic vetx fact file.
// encoding/json sorts map keys, so byte-identical facts yield
// byte-identical files regardless of construction order — which keeps
// cmd/go's content-addressed action cache stable.
func EncodeFacts(f Facts) ([]byte, error) {
	if f == nil {
		f = Facts{}
	}
	data, err := json.Marshal(vetxFile{Schema: vetxSchema, Facts: f})
	if err != nil {
		return nil, fmt.Errorf("femtolint: encode facts: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeFacts parses a vetx fact file. Unknown schemas decode as empty
// facts (see vetxSchema); malformed JSON is an error.
func DecodeFacts(data []byte) (Facts, error) {
	var vf vetxFile
	if err := json.Unmarshal(data, &vf); err != nil {
		return nil, fmt.Errorf("femtolint: decode facts: %w", err)
	}
	if vf.Schema != vetxSchema || vf.Facts == nil {
		return Facts{}, nil
	}
	return vf.Facts, nil
}

// MergeFacts folds src into dst (creating dst if nil) and returns dst.
// Existing entries win: a package's facts are computed exactly once per
// build, so any duplicate arriving via a second import path is identical
// by construction.
func MergeFacts(dst, src Facts) Facts {
	if dst == nil {
		dst = Facts{}
	}
	for path, pf := range src {
		if _, ok := dst[path]; ok {
			continue
		}
		dst[path] = pf
	}
	return dst
}
