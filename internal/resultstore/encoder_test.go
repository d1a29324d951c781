package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"
)

// refEncoder is the fingerprint encoding as specified, with no
// buffering: every integer goes straight into the digest as one 8-byte
// little-endian word, every string as its length word followed by its
// bytes.
type refEncoder struct{ h hash.Hash }

func newRefEncoder(salt string) refEncoder {
	r := refEncoder{h: sha256.New()}
	r.str(salt)
	return r
}

func (r refEncoder) ints(vals ...int) {
	for _, v := range vals {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], uint64(int64(v)))
		r.h.Write(word[:])
	}
}

func (r refEncoder) str(s string) {
	r.ints(len(s))
	io.WriteString(r.h, s)
}

func (r refEncoder) sum() string { return hex.EncodeToString(r.h.Sum(nil)) }

// FuzzEncoderMatchesReference differences the buffered Encoder against
// refEncoder: both must produce the same digest for every sequence of
// calls, wherever the encoder's buffer flushes fall. ops is read three
// bytes at a time (missing bytes read as zero): a kind byte k and a
// little-endian parameter p.
//
//   - k%3 == 0: one Ints call with p%2048 values derived from k and
//     the value's index, negative and extreme ones included;
//   - k%3 == 1: one Str call with a string of p%12000 bytes, up to
//     almost three buffers long;
//   - k%3 == 2: a Sum in mid-stream, which must agree and must not
//     disturb the rest of the stream.
func FuzzEncoderMatchesReference(f *testing.F) {
	f.Add("fuzz", []byte{})
	// 600 integers after the 12-byte salt: a flush inside the batch.
	f.Add("fuzz", []byte{0, 0x58, 0x02})
	// A 5000-byte string: a flush inside the string.
	f.Add("fuzz", []byte{1, 0x88, 0x13})
	// A 10000-byte string (longer than the buffer), a short batch, a
	// mid-stream Sum, then 1000 integers from an unaligned offset.
	f.Add("rendezvous/resultstore/v1", []byte{1, 0x10, 0x27, 3, 3, 0, 2, 0, 0, 0xfc, 0xe8, 0x03})
	// A 5-byte string leaves the buffer unaligned; 1023 integers then
	// cross two flushes, and after a mid-stream Sum a 4090-byte string
	// crosses the next.
	f.Add("", []byte{4, 5, 0, 0x81, 0xff, 0x03, 5, 0, 0, 7, 0xfa, 0x0f, 9, 0x40, 0})
	f.Fuzz(func(t *testing.T, salt string, ops []byte) {
		got, want := NewEncoder(salt), newRefEncoder(salt)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var vals []int
		for step := 0; len(ops) > 0; step++ {
			k := next()
			p := int(next()) | int(next())<<8
			switch k % 3 {
			case 0:
				vals = vals[:0]
				for i := range p % 2048 {
					x := (uint64(i) + 1) * 0x9E3779B97F4A7C15
					vals = append(vals, int(int64(x^uint64(k)<<56)>>(k%64)))
				}
				got.Ints(vals...)
				want.ints(vals...)
			case 1:
				s := make([]byte, p%12000)
				for i := range s {
					s[i] = k + byte(i*31)
				}
				got.Str(string(s))
				want.str(string(s))
			case 2:
				if g, w := got.Sum(), want.sum(); g != w {
					t.Fatalf("op %d: mid-stream Sum %s, reference %s", step, g, w)
				}
			}
		}
		if g, w := got.Sum(), want.sum(); g != w {
			t.Fatalf("Sum %s, reference %s", g, w)
		}
	})
}

// TestEncoderDoesNotAllocate pins that encoding costs no allocation
// per value: once the encoder exists, Ints and Str only write into its
// buffer and flush it into the digest.
func TestEncoderDoesNotAllocate(t *testing.T) {
	e := NewEncoder("alloc")
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i*7919 - 50
	}
	allocs := testing.AllocsPerRun(20, func() {
		for range 8 {
			e.Ints(vals...)
		}
		e.Str("schedules")
		e.Ints(len(vals), -1)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per run of Ints/Str calls, want 0", allocs)
	}
}
