package service

import (
	"bytes"
	"encoding/json"
	"strconv"

	"jellyfish/internal/topology"
)

// inlineSpecs is implemented by the requests that can carry inline
// blueprints: it lists their topology specs.
type inlineSpecs interface {
	topologySpecs() []*TopologySpec
}

func (r *EvaluateRequest) topologySpecs() []*TopologySpec { return []*TopologySpec{&r.Topology} }
func (r *WhatIfRequest) topologySpecs() []*TopologySpec   { return []*TopologySpec{&r.Base} }
func (r *RewireRequest) topologySpecs() []*TopologySpec   { return []*TopologySpec{&r.Before, &r.After} }

// decodeStrict unmarshals a request document, rejecting unknown fields so
// typos ("trails") fail loudly instead of silently selecting defaults.
//
// A request with inline blueprints is read in one pass where it can be
// (decodeInline, DESIGN.md §10); otherwise, and on any doubt, it is
// decoded by encoding/json alone, so every rejection and its text stay
// encoding/json's.
func decodeStrict[T any](data []byte, v *T) *apiError {
	var fresh T
	if specs, ok := any(&fresh).(inlineSpecs); ok && decodeInline(data, specs) {
		*v = fresh
		return nil
	}
	return decodeJSON(data, v)
}

// decodeJSON is encoding/json's strict decode of one request document.
func decodeJSON(data []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid_json", "%v", err)
	}
	// A second document, or any other non-whitespace after the first,
	// is a client bug too.
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return badRequest("invalid_json", "trailing data after request document")
	}
	return nil
}

// A parsedSpan is the value of one "blueprint" member: its bytes in the
// request body and what topology.ParseBlueprint makes of them.
type parsedSpan struct {
	raw   []byte
	top   *topology.Topology
	err   error
	taken bool
}

// decodeInline decodes data into v, a zero request, and reports whether
// it could without encoding/json reading a blueprint. It walks the
// document's strings; at each member whose key is exactly "blueprint",
// topology.ParseBlueprintPrefix parses the value, builds its topology or
// records the error, and says how many bytes the value takes. The rest of
// the document, with each such value replaced by its index, is the
// envelope, which encoding/json decodes strictly into v; each index must
// then land in exactly one topology spec, which gets the value's bytes
// (a subslice of data) and its parse outcome.
//
// Swapping a JSON value for another leaves the rest of the document
// decoding as before, so success here means encoding/json would decode
// data to the same request. It reports false, leaving the caller to
// decode data afresh, on a key that equals "blueprint" only when case is
// ignored or that holds an escape (either might reach the blueprint field
// unseen), on a blueprint value outside the one-pass grammar, on an index
// that does not land in exactly one spec, and on any envelope error.
func decodeInline(data []byte, v inlineSpecs) bool {
	var env []byte
	var spans []parsedSpan
	last := 0
	for i := 0; i < len(data); i++ {
		if data[i] != '"' {
			continue
		}
		key, end, escaped := stringAt(data, i)
		if end < 0 {
			return false
		}
		i = end - 1
		colon := skipSpace(data, end)
		if colon == len(data) || data[colon] != ':' {
			continue // a string value, not a key
		}
		if escaped {
			return false
		}
		if string(key) != "blueprint" {
			if bytes.EqualFold(key, []byte("blueprint")) {
				return false
			}
			continue
		}
		start := skipSpace(data, colon+1)
		n, top, err := topology.ParseBlueprintPrefix(data[start:])
		if n == 0 {
			return false
		}
		end = start + n
		env = strconv.AppendInt(append(env, data[last:start]...), int64(len(spans)), 10)
		spans = append(spans, parsedSpan{raw: data[start:end:end], top: top, err: err})
		last = end
		i = end - 1
	}
	if spans == nil || decodeJSON(append(env, data[last:]...), v) != nil {
		return false
	}
	taken := 0
	for _, ts := range v.topologySpecs() {
		if ts.Blueprint == nil {
			continue
		}
		k, err := strconv.Atoi(string(ts.Blueprint))
		if err != nil || k < 0 || k >= len(spans) || spans[k].taken {
			return false
		}
		sp := &spans[k]
		sp.taken = true
		taken++
		ts.Blueprint, ts.top, ts.topErr = sp.raw, sp.top, sp.err
	}
	return taken == len(spans)
}

// stringAt reads the JSON string whose opening quote is data[i]. It
// returns the raw bytes between the quotes, the index just past the
// closing quote (-1 if there is none) and whether the string holds an
// escape.
func stringAt(data []byte, i int) (raw []byte, end int, escaped bool) {
	for j := i + 1; j < len(data); j++ {
		switch data[j] {
		case '"':
			return data[i+1 : j], j + 1, escaped
		case '\\':
			escaped = true
			j++
		}
	}
	return nil, -1, escaped
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
