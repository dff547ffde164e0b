package journal_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"testing"

	"snet/internal/journal"
)

// memFS is an in-memory journal.FS: crash enumeration and fuzzing open
// thousands of journals, which real directories would make slow. List
// returns every name, stray ones included, so the journal's own segment
// filter is what decides.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func (m *memFS) OpenAppend(name string) (journal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return os.ErrNotExist
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// frame is one decoded segment frame: its end offset in the segment, its
// kind ('A' accept, 'K' ack) and the delivery ids it accepts or acks.
type frame struct {
	end  int
	kind byte
	ids  []uint64
}

// parseFrames walks a clean segment's frames (see the package doc for the
// format), failing the test on any damage.
func parseFrames(t *testing.T, data []byte) []frame {
	t.Helper()
	var out []frame
	for off := 0; off < len(data); {
		if len(data)-off < 8 {
			t.Fatalf("frame header cut at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			t.Fatalf("frame at %d fails its CRC", off)
		}
		off += 8 + n
		f := frame{end: off, kind: payload[0]}
		switch f.kind {
		case 'A':
			f.ids = []uint64{binary.LittleEndian.Uint64(payload[1:])}
		case 'K':
			cnt := int(binary.LittleEndian.Uint16(payload[1:]))
			for i := 0; i < cnt; i++ {
				f.ids = append(f.ids, binary.LittleEndian.Uint64(payload[3+8*i:]))
			}
		default:
			t.Fatalf("frame at %d has kind %q", off, f.kind)
		}
		out = append(out, f)
	}
	return out
}

// unacked replays frames the way Open does: accepts in order, minus every
// id any frame acks.
func unacked(frames []frame) []uint64 {
	acked := map[uint64]bool{}
	for _, f := range frames {
		if f.kind == 'K' {
			for _, id := range f.ids {
				acked[id] = true
			}
		}
	}
	var out []uint64
	for _, f := range frames {
		if f.kind == 'A' && !acked[f.ids[0]] {
			out = append(out, f.ids[0])
		}
	}
	return out
}
