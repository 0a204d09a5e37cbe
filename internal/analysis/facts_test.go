package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func sampleFacts() Facts {
	return Facts{
		"femtoverse/internal/core": {
			"dettaint": json.RawMessage(`{"Stamp":{"source":"wall-clock time (time.Now)","path":"time.Now"}}`),
		},
		"femtoverse/internal/hio": {
			"dettaint": json.RawMessage(`{"Save":{"source":"the process environment (os.Getenv)","path":"os.CreateTemp → os.Getenv"}}`),
		},
	}
}

func TestFactsRoundTrip(t *testing.T) {
	in := sampleFacts()
	data, err := EncodeFacts(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed facts:\nin:  %v\nout: %v", in, out)
	}
}

// TestEncodeFactsDeterministic matters for cmd/go's content-addressed
// action cache: the same facts must serialize to the same bytes no
// matter what order the maps were built in.
func TestEncodeFactsDeterministic(t *testing.T) {
	a, err := EncodeFacts(sampleFacts())
	if err != nil {
		t.Fatal(err)
	}
	reversed := Facts{}
	for _, p := range []string{"femtoverse/internal/hio", "femtoverse/internal/core"} {
		reversed[p] = sampleFacts()[p]
	}
	b, err := EncodeFacts(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("encoding depends on construction order:\n%s\n%s", a, b)
	}
}

func TestDecodeFactsUnknownSchema(t *testing.T) {
	out, err := DecodeFacts([]byte(`{"schema":"femtolint-facts/v999","facts":{"p":{"x":{}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("unknown schema decoded as %v, want empty facts", out)
	}
	if _, err := DecodeFacts([]byte("not json")); err == nil {
		t.Error("malformed vetx decoded without error")
	}
}

func TestMergeFactsFirstWins(t *testing.T) {
	dst := Facts{"p": {"dettaint": json.RawMessage(`{"A":{}}`)}}
	src := Facts{
		"p": {"dettaint": json.RawMessage(`{"B":{}}`)},
		"q": {"dettaint": json.RawMessage(`{"C":{}}`)},
	}
	got := MergeFacts(dst, src)
	if string(got["p"]["dettaint"]) != `{"A":{}}` {
		t.Errorf("existing entry overwritten: %s", got["p"]["dettaint"])
	}
	if string(got["q"]["dettaint"]) != `{"C":{}}` {
		t.Errorf("new entry not merged: %v", got["q"])
	}
	if len(got) != 2 {
		t.Errorf("merged %d packages, want 2 (p and q)", len(got))
	}
}
