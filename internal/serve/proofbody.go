package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"unicode/utf8"

	"lcp/internal/bitstr"
	"lcp/internal/core"
)

// proofBody is one proof of a check request: the JSON object
// {"<node id>": "0110", …}. UnmarshalJSON scans it straight into a
// core.Proof — no intermediate map[string]string, no reflection, one
// bitstr.ParseBits per label. Node ids and bit strings are plain ASCII,
// so the only strings handed to encoding/json are those holding an
// escape (or a non-ASCII byte, which encoding/json would rewrite to
// U+FFFD); it unquotes them exactly as decoding into a map would.
//
// The semantics are those of a map[string]string field: JSON null is
// "absent" (the request fields are *proofBody, so null leaves them nil),
// a null label is the empty label, and a repeated key keeps its last
// value. A value of the wrong JSON type fails the request body decode
// like it did for the map. A bad node id or bit string does not: it is
// kept in err and reported by parseProof once the request has resolved
// its instance, as before. Whether every id names a node of that
// instance is checked there too.
type proofBody struct {
	proof core.Proof
	err   error
}

var errMalformedProof = errors.New("malformed proof object")

func (b *proofBody) UnmarshalJSON(data []byte) error {
	text := string(data) // ids and labels below are substrings of this one copy
	if text == "null" {
		return nil
	}
	i := skipSpace(text, 0)
	if i == len(text) || text[i] != '{' {
		return typeError(text, i, reflect.TypeFor[map[string]string]())
	}
	// Every entry holds a colon and takes at least six bytes ("1":""),
	// so this bounds the entry count without a second pass.
	proof := make(core.Proof)
	// bad holds the keys whose latest value is a bad id or bit string,
	// in first-seen order; a later good value for the same key clears
	// its entry, because the last value wins.
	var bad map[string]error
	var badOrder []string
	for i++; ; {
		i = skipSpace(text, i)
		if i == len(text) {
			return errMalformedProof
		}
		switch text[i] {
		case '}':
			for _, key := range badOrder {
				if err, ok := bad[key]; ok {
					b.err = err
					break
				}
			}
			b.proof = proof
			return nil
		case ',':
			i++
			continue
		case '"':
		default:
			return errMalformedProof
		}
		key, next, err := scanString(text, i)
		if err != nil {
			return err
		}
		i = skipSpace(text, next)
		if i == len(text) || text[i] != ':' {
			return errMalformedProof
		}
		i = skipSpace(text, i+1)
		var label string
		switch {
		case i < len(text) && text[i] == '"':
			if label, i, err = scanString(text, i); err != nil {
				return err
			}
		case len(text)-i >= 4 && text[i:i+4] == "null":
			i += 4 // a null label decodes as "", the empty label
		default:
			return typeError(text, i, reflect.TypeFor[string]())
		}
		id, err := strconv.Atoi(key)
		var bits bitstr.String
		if err != nil {
			err = fmt.Errorf("bad proof node id %q", key)
		} else if bits, err = bitstr.ParseBits(label); err != nil {
			err = fmt.Errorf("node %d: %w", id, err)
		}
		if err != nil {
			if bad == nil {
				bad = make(map[string]error)
			}
			if _, seen := bad[key]; !seen {
				badOrder = append(badOrder, key)
			}
			bad[key] = err
			continue
		}
		if bad != nil {
			delete(bad, key)
		}
		proof[id] = bits
	}
}

// skipSpace returns the index of the first non-whitespace byte of text
// at or after i.
func skipSpace(text string, i int) int {
	for i < len(text) {
		switch text[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString reads the JSON string whose opening quote is text[i],
// returning its value and the index just past the closing quote.
func scanString(text string, i int) (string, int, error) {
	j := i + 1
	for ; j < len(text); j++ {
		c := text[j]
		if c == '"' {
			return text[i+1 : j], j + 1, nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	for ; j < len(text); j++ {
		switch text[j] {
		case '\\':
			j++
		case '"':
			var s string
			err := json.Unmarshal([]byte(text[i:j+1]), &s)
			return s, j + 1, err
		}
	}
	return "", j, errMalformedProof
}

// typeError is the error encoding/json reports for the JSON value at
// text[i] landing in a Go value of type t; the request decoder adds the
// struct field, so the text matches decoding into a map[string]string.
func typeError(text string, i int, t reflect.Type) error {
	kind := "number"
	if i < len(text) {
		switch text[i] {
		case '{':
			kind = "object"
		case '[':
			kind = "array"
		case '"':
			kind = "string"
		case 't', 'f':
			kind = "bool"
		}
	}
	return &json.UnmarshalTypeError{Value: kind, Type: t, Offset: int64(i)}
}

// parseProof checks a request proof against the instance's node set. A
// nil body (JSON null inside "proofs") is the empty proof.
func parseProof(in *core.Instance, b *proofBody) (core.Proof, error) {
	if b == nil {
		return core.Proof{}, nil
	}
	if b.err != nil {
		return nil, b.err
	}
	for id := range b.proof {
		if !in.G.Has(id) {
			return nil, fmt.Errorf("proof references unknown node %d", id)
		}
	}
	return b.proof, nil
}
