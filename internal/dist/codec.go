// The record wire codec's shared layer: field-value type codes, record
// kinds, value encoding and sizing, and the bounds-checked decoder the
// link Codec (codec2.go) reads messages with.
//
// Tags and binding tags are integers and always serialize exactly. Field
// values are opaque to the coordination layer; the codec serializes the
// common scalar kinds (nil, bool, integers, float64, string, []byte)
// exactly and sizes everything else with the mpi.ByteSizer conventions
// (ByteSize when declared, a fixed estimate otherwise), so the S-Net
// cluster and the MPI baseline charge identical byte counts for the same
// payloads.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"snet/internal/mpi"
)

// Field-value type codes on the wire. tExt carries a value encoded by a
// registered ValueCodec (codec2.go): a u16-length-prefixed encoding name
// followed by a u32-length-prefixed payload; decoding it needs the link's
// ValueCodec.
const (
	tNil byte = iota
	tBool
	tInt
	tFloat
	tString
	tBytes
	tExt
)

// Record kinds on the wire.
const (
	kData    byte = 0
	kTrigger byte = 1
)

// valueSize is the encoded payload size after the type-code byte.
func valueSize(v any) int {
	switch d := v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int, int64, float64:
		return 8
	case string:
		return 4 + len(d)
	case []byte:
		return 4 + len(d)
	default:
		return mpi.PayloadBytes(v)
	}
}

// appendValue writes one field value: its type code and payload.
func appendValue(buf []byte, label string, v any) ([]byte, error) {
	switch d := v.(type) {
	case nil:
		return append(buf, tNil), nil
	case bool:
		b := byte(0)
		if d {
			b = 1
		}
		return append(buf, tBool, b), nil
	case int:
		buf = append(buf, tInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(int64(d))), nil
	case int64:
		buf = append(buf, tInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(d)), nil
	case float64:
		buf = append(buf, tFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(d)), nil
	case string:
		if len(d) > math.MaxUint32 {
			return nil, fmt.Errorf("dist: field %q string of %d bytes exceeds the wire limit", label, len(d))
		}
		buf = append(buf, tString)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d)))
		return append(buf, d...), nil
	case []byte:
		if len(d) > math.MaxUint32 {
			return nil, fmt.Errorf("dist: field %q payload of %d bytes exceeds the wire limit", label, len(d))
		}
		buf = append(buf, tBytes)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d)))
		return append(buf, d...), nil
	default:
		return nil, fmt.Errorf("dist: field %q value of type %T is not wire-serializable", label, v)
	}
}

// decoder walks an encoded record with bounds checking.
type decoder struct {
	buf []byte
	off int
}

// take consumes the next n bytes. A length read from the wire can exceed
// the int range when converted, so a negative n is truncation too.
func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf)-d.off {
		return nil, fmt.Errorf("dist: truncated record encoding at byte %d", d.off)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) byte() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) value(label string, ext ValueCodec) (any, error) {
	code, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch code {
	case tNil:
		return nil, nil
	case tBool:
		b, err := d.byte()
		if err != nil {
			return nil, err
		}
		return b != 0, nil
	case tInt:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return int(int64(v)), nil
	case tFloat:
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(v), nil
	case tString:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case tBytes:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case tExt:
		nameLen, err := d.u16()
		if err != nil {
			return nil, err
		}
		name, err := d.take(int(nameLen))
		if err != nil {
			return nil, err
		}
		dataLen, err := d.u32()
		if err != nil {
			return nil, err
		}
		data, err := d.take(int(dataLen))
		if err != nil {
			return nil, err
		}
		if ext == nil {
			return nil, fmt.Errorf("dist: field %q carries extension encoding %q but the link has no ValueCodec",
				label, string(name))
		}
		v, err := ext.Decode(string(name), data)
		if err != nil {
			return nil, fmt.Errorf("dist: field %q extension decode (%q): %w", label, string(name), err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("dist: field %q has unknown wire type code %d", label, code)
	}
}
