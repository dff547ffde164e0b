package journal_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"snet/internal/dist"
	"snet/internal/journal"
	"snet/internal/record"
)

// FuzzJournalReplay opens a journal whose only segment holds arbitrary
// bytes — a disk the process crashed on, or one that rotted. Open must not
// panic or fail; it must count the damage in Torn exactly when the segment
// has any, recover the unacked accepts of the readable prefix, and every
// recovered record must re-encode through a fresh Codec and decode back
// equal.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		fs := newMemFS()
		fs.files["seg-000000.wal"] = slices.Clone(seg)
		j, err := journal.Open(journal.Config{FS: fs})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()
		want, damaged := replayModel(seg)
		torn := 0
		if damaged {
			torn = 1
		}
		if s := j.Stats(); s.Torn != torn {
			t.Fatalf("Torn = %d, want %d", s.Torn, torn)
		}
		var got []uint64
		for _, e := range j.Recovered() {
			got = append(got, e.ID)
			checkReencodes(t, e.Rec)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("recovered ids %v, want %v", got, want)
		}
	})
}

// replayModel is the reference reading of one segment: frames in order
// until the first one that is cut short, fails its CRC, is malformed or
// does not decode; it returns the unacked accept ids of that prefix (first
// occurrence of each) and whether the walk stopped on damage.
func replayModel(data []byte) (ids []uint64, damaged bool) {
	dec := dist.NewCodec()
	seen, acked := map[uint64]bool{}, map[uint64]bool{}
	var order []uint64
	for len(data) > 0 && !damaged {
		damaged = true
		if len(data) < 8 {
			break
		}
		n := int(binary.LittleEndian.Uint32(data))
		if n == 0 || n > len(data)-8 {
			break
		}
		p := data[8 : 8+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[4:]) {
			break
		}
		data = data[8+n:]
		switch p[0] {
		case 'A':
			if len(p) < 11 {
				break
			}
			ml := int(binary.LittleEndian.Uint16(p[9:]))
			if len(p) < 11+ml {
				break
			}
			if _, err := dec.Unmarshal(p[11+ml:]); err != nil {
				break
			}
			id := binary.LittleEndian.Uint64(p[1:])
			if !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
			damaged = false
		case 'K':
			if len(p) < 3 {
				break
			}
			cnt := int(binary.LittleEndian.Uint16(p[1:]))
			if len(p) < 3+8*cnt {
				break
			}
			for i := 0; i < cnt; i++ {
				acked[binary.LittleEndian.Uint64(p[3+8*i:])] = true
			}
			damaged = false
		}
	}
	for _, id := range order {
		if !acked[id] {
			ids = append(ids, id)
		}
	}
	return ids, damaged
}

// checkReencodes ships r over a fresh link pair and requires it back with
// the same content, compared as the fresh-link encoding (exact for every
// value the codec decodes, NaN floats included).
func checkReencodes(t *testing.T, r *record.Record) {
	t.Helper()
	buf, err := dist.NewCodec().Marshal(r)
	if err != nil {
		t.Fatalf("recovered record does not re-encode: %v", err)
	}
	back, err := dist.NewCodec().Unmarshal(buf)
	if err != nil {
		t.Fatalf("re-encoded record does not decode: %v", err)
	}
	again, err := dist.NewCodec().Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatalf("round trip %s != %s", back, r)
	}
}
