package dist_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snet/internal/dist"
	"snet/internal/record"
)

type sized struct{ n int }

func (s sized) ByteSize() int { return s.n }

// TestCodecRoundTrip sends one record twice over a link: the first message
// defines every label inline, the second carries symbol references only,
// and both must decode to the same content.
func TestCodecRoundTrip(t *testing.T) {
	r := record.Build().
		F("name", "sphere-7").
		F("weight", 3.25).
		F("count", 42).
		F("wide", int64(1<<40)).
		F("flag", true).
		F("off", false).
		F("blob", []byte{0, 1, 2, 254, 255}).
		F("empty", nil).
		T("node", 3).
		T("tasks", -48).
		Rec()
	r.SetBTag("bind", 7)
	r.SetBTag("neg", -1)

	enc, dec := dist.NewCodec(), dist.NewCodec()
	for send := 1; send <= 2; send++ {
		buf, err := enc.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Unmarshal(buf)
		if err != nil {
			t.Fatalf("send %d: %v", send, err)
		}

		if !got.IsData() {
			t.Fatal("kind lost")
		}
		for _, tag := range []struct {
			label string
			want  int
		}{{"node", 3}, {"tasks", -48}} {
			if v, ok := got.Tag(tag.label); !ok || v != tag.want {
				t.Fatalf("send %d: tag <%s> = %d,%v, want %d", send, tag.label, v, ok, tag.want)
			}
		}
		for _, bt := range []struct {
			label string
			want  int
		}{{"bind", 7}, {"neg", -1}} {
			if v, ok := got.BTag(bt.label); !ok || v != bt.want {
				t.Fatalf("send %d: btag <#%s> = %d,%v, want %d", send, bt.label, v, ok, bt.want)
			}
		}
		checks := map[string]any{
			"name": "sphere-7", "weight": 3.25, "count": 42,
			"wide": int(1 << 40), "flag": true, "off": false, "empty": nil,
		}
		for label, want := range checks {
			v, ok := got.Field(label)
			if !ok || v != want {
				t.Fatalf("send %d: field %s = %v,%v, want %v", send, label, v, ok, want)
			}
		}
		blob, _ := got.Field("blob")
		if !bytes.Equal(blob.([]byte), []byte{0, 1, 2, 254, 255}) {
			t.Fatalf("send %d: blob = %v", send, blob)
		}
		if got.NumFields() != 8 || got.NumTags() != 2 || got.NumBTags() != 2 {
			t.Fatalf("send %d: label counts %d/%d/%d", send, got.NumFields(), got.NumTags(), got.NumBTags())
		}
	}
}

// TestCodecTriggerRoundTrip checks that control records survive a link
// both as its first message and mid-stream, after data records have
// populated the label table: the data record after the trigger must still
// resolve its table-only label references.
func TestCodecTriggerRoundTrip(t *testing.T) {
	enc, dec := dist.NewCodec(), dist.NewCodec()
	data := record.New().SetField("chunk", "payload").SetTag("tasks", 48)
	for i, r := range []*record.Record{record.NewTrigger(), data, record.NewTrigger(), data.Copy()} {
		buf, err := enc.Marshal(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, err := dec.Unmarshal(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.IsData() != r.IsData() {
			t.Fatalf("record %d: kind lost", i)
		}
		if r.IsData() && !got.Equal(r) {
			t.Fatalf("record %d: round trip %s != %s", i, got, r)
		}
	}
}

// TestSizeMatchesMarshal pins Size's contract — the size of the next
// Marshal, without advancing negotiation — on a fresh link and after each
// of two sends, including one name used in two label classes of the same
// record (defined inline once).
func TestSizeMatchesMarshal(t *testing.T) {
	records := []*record.Record{
		record.New(),
		record.NewTrigger(),
		record.Build().F("s", "abc").F("b", []byte("xyzw")).T("n", 1).Rec(),
		record.Build().F("f", 2.5).F("i", 7).F("nil", nil).F("t", true).Rec(),
		record.New().SetTag("x", 1).SetField("x", "both-classes").SetField("y", 2),
	}
	for _, r := range records {
		c := dist.NewCodec()
		for hop := 0; hop < 3; hop++ {
			want := c.Size(r)
			buf, err := c.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if want != len(buf) {
				t.Fatalf("record %s hop %d: Size = %d, Marshal = %d bytes", r, hop, want, len(buf))
			}
		}
	}
}

// TestSizeByteSizerConvention checks that opaque field values follow the
// mpi.ByteSizer conventions: declared sizes are honored, everything else
// falls back to the fixed estimate.
func TestSizeByteSizerConvention(t *testing.T) {
	c := dist.NewCodec()
	// A nil value has an empty payload, so base is the label and
	// type-code overhead the other two records share.
	base := c.Size(record.New().SetField("x", nil))
	declared := record.New().SetField("x", sized{n: 1000})
	opaque := record.New().SetField("x", struct{ a, b int }{})
	if got := c.Size(declared); got != base+1000 {
		t.Fatalf("ByteSizer field: size = %d, want %d", got, base+1000)
	}
	if got := c.Size(opaque); got != base+64 {
		t.Fatalf("opaque field: size = %d, want %d", got, base+64)
	}
}

// TestMarshalRejectsOpaqueFields: a field value with no wire form fails
// Marshal by name — and the failure must not commit label definitions the
// peer never receives, so the next successful Marshal still round-trips.
func TestMarshalRejectsOpaqueFields(t *testing.T) {
	enc, dec := dist.NewCodec(), dist.NewCodec()
	bad := record.New().SetTag("tasks", 48).SetField("scene", struct{ x int }{1})
	if _, err := enc.Marshal(bad); err == nil ||
		!strings.Contains(err.Error(), "scene") {
		t.Fatalf("err = %v", err)
	}
	good := record.New().SetTag("tasks", 48).SetField("scene", "now-a-string")
	buf, err := enc.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Unmarshal(buf)
	if err != nil {
		t.Fatalf("link desynced by failed marshal: %v", err)
	}
	if !got.Equal(good) {
		t.Fatalf("round trip %s != %s", got, good)
	}
}

func TestMarshalRejectsTooManyLabels(t *testing.T) {
	r := record.New()
	for i := 0; i < 1<<16; i++ {
		r.SetTag(fmt.Sprintf("t%d", i), i)
	}
	c := dist.NewCodec()
	if _, err := c.Marshal(r); err == nil ||
		!strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("Marshal err = %v", err)
	}
	if _, err := c.MarshalBatch([]*record.Record{r}); err == nil ||
		!strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("MarshalBatch err = %v", err)
	}
}

// TestUnmarshalErrors feeds a fresh link malformed buffers, every strict
// prefix of a good one, and a ref-only buffer — undecodable on a link that
// never saw the definitions, the failure mode the per-link tables must
// detect rather than mislabel.
func TestUnmarshalErrors(t *testing.T) {
	enc := dist.NewCodec()
	r := record.Build().F("s", "hello").T("n", 1).Rec()
	good, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	refOnly, err := enc.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad version": {99, 0, 0, 0, 0, 0, 0, 0},
		"version 1":   {1, 0, 0, 0, 0, 0, 0, 0},
		"bad kind":    {2, 7, 0, 0, 0, 0, 0, 0},
		"trailing":    append(append([]byte{}, good...), 0),
		"ref-only":    refOnly,
	}
	for n := 0; n < len(good); n++ {
		cases[fmt.Sprintf("truncated to %d", n)] = good[:n]
	}
	for name, buf := range cases {
		if got, err := dist.NewCodec().Unmarshal(buf); err == nil || got != nil {
			t.Errorf("%s: record %v, err %v; want an error", name, got, err)
		}
	}
}

// benchRecord mirrors the paper's splitter output: two fields, three tags.
func benchRecord() *record.Record {
	return record.Build().
		F("scene", "scene-payload").F("sect", 7).
		T("node", 3).T("tasks", 48).T("fst", 1).
		Rec()
}

// BenchmarkMarshalNegotiated measures the link codec in steady state,
// after the label table has been negotiated.
func BenchmarkMarshalNegotiated(b *testing.B) {
	r := benchRecord()
	c := dist.NewCodec()
	if _, err := c.Marshal(r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeNegotiated measures the transfer-accounting path: sizing a
// record against an already negotiated link table, as Cluster.Transfer
// does per hop.
func BenchmarkSizeNegotiated(b *testing.B) {
	r := benchRecord()
	c := dist.NewCodec()
	c.Account(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Account(r)
	}
}
