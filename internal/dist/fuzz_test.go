package dist_test

import (
	"bytes"
	"testing"

	"snet/internal/dist"
	"snet/internal/record"
)

// fuzzPrimer is one message that defines wire symbols 1 (<tasks>) and 2
// (field chunk) on a link: a data record {chunk="payload", <tasks=48>}.
// The committed corpus holds reference-only messages against these
// symbols, which decode only on a link that has seen the primer.
var fuzzPrimer = []byte{
	2, 0, // version, data record
	1, 0, 0, 0, 1, 0, // one tag, no btags, one field
	3, 5, 't', 'a', 's', 'k', 's', // define sym 1 inline
	48, 0, 0, 0, 0, 0, 0, 0,
	5, 5, 'c', 'h', 'u', 'n', 'k', // define sym 2 inline
	4, 7, 0, 0, 0, 'p', 'a', 'y', 'l', 'o', 'a', 'd', // string value
}

// FuzzCodecUnmarshal feeds untrusted bytes — a peer's frames, a journal
// segment — to Codec.Unmarshal and Codec.UnmarshalBatch, on a fresh link
// and on one that has negotiated the primer's labels. A decode must never
// panic: it either fails with an error and no records, or yields records
// that re-encode through a fresh Codec and decode back equal.
func FuzzCodecUnmarshal(f *testing.F) {
	f.Add(fuzzPrimer)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, negotiated := range []bool{false, true} {
			link := func() *dist.Codec {
				c := dist.NewCodec()
				if negotiated {
					if _, err := c.Unmarshal(fuzzPrimer); err != nil {
						t.Fatalf("primer: %v", err)
					}
				}
				return c
			}
			if r, err := link().Unmarshal(data); err != nil {
				if r != nil {
					t.Fatalf("Unmarshal returned a record with error %v", err)
				}
			} else {
				checkReencodes(t, []*record.Record{r}, false)
			}
			if rs, err := link().UnmarshalBatch(data); err != nil {
				if rs != nil {
					t.Fatalf("UnmarshalBatch returned %d records with error %v", len(rs), err)
				}
			} else {
				checkReencodes(t, rs, true)
			}
		}
	})
}

// checkReencodes ships decoded records over a fresh link pair and requires
// each to come back with the same content. Content is compared as the
// fresh-link encoding, which is exact for every value the codec decodes
// (NaN floats and byte slices included).
func checkReencodes(t *testing.T, rs []*record.Record, batch bool) {
	t.Helper()
	enc, dec := dist.NewCodec(), dist.NewCodec()
	var back []*record.Record
	if batch {
		buf, err := enc.MarshalBatch(rs)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		if back, err = dec.UnmarshalBatch(buf); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
	} else {
		buf, err := enc.Marshal(rs[0])
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		r, err := dec.Unmarshal(buf)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		back = []*record.Record{r}
	}
	if len(back) != len(rs) {
		t.Fatalf("round trip returned %d records, want %d", len(back), len(rs))
	}
	for i := range rs {
		want, err := dist.NewCodec().Marshal(rs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := dist.NewCodec().Marshal(back[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: round trip %s != %s", i, back[i], rs[i])
		}
	}
}
