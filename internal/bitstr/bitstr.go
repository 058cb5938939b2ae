// Package bitstr implements bit-exact binary strings.
//
// Locally checkable proofs assign a binary string to every node, and the
// size of a proof is measured in bits per node (Göös & Suomela, PODC 2011,
// §2.1). This package provides the proof alphabet: an immutable String
// value type whose length is counted in bits, plus MSB-first Writer and
// Reader types for composing structured proof labels out of fixed-width
// integers, variable-width integers and booleans.
package bitstr

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unicode/utf8"
)

// String is an immutable sequence of bits. The zero value is the empty
// string ε (the "empty proof" of size 0 in the paper).
type String struct {
	data []byte // MSB-first packed bits; len(data) == ceil(n/8)
	n    int    // number of valid bits
}

// Empty is the empty bit string ε.
var Empty = String{}

// FromBits builds a String from a slice of 0/1 values, most significant
// first. Any nonzero byte counts as a 1 bit.
func FromBits(bits []byte) String {
	var w Writer
	for _, b := range bits {
		w.WriteBit(b != 0)
	}
	return w.String()
}

// FromBools builds a String from booleans, most significant first.
func FromBools(bits ...bool) String {
	var w Writer
	for _, b := range bits {
		w.WriteBit(b)
	}
	return w.String()
}

// FromUint builds a width-bit String holding v in MSB-first binary.
func FromUint(v uint64, width int) String {
	var w Writer
	w.WriteUint(v, width)
	return w.String()
}

// Parse builds a String from a textual description such as "0110". Spaces
// are ignored. It panics on any other rune; it is intended for tests.
func Parse(s string) String {
	b, err := ParseBits(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		panic(fmt.Sprintf("bitstr.Parse: invalid rune %q", err.(*BitError).Rune))
	}
	return b
}

// A BitError reports the first rune of a ParseBits input that is
// neither '0' nor '1'.
type BitError struct{ Rune rune }

func (e *BitError) Error() string { return fmt.Sprintf("bad proof bit %q", e.Rune) }

// ParseBits builds a String from text such as "0110", one bit per
// character, most significant first. It is the one text-to-bits parser
// behind every wire and file format that spells proofs as 0/1 text. Any
// other rune is rejected with a *BitError naming it; ParseBits returns
// no other kind of error.
//
// Eight characters are validated and packed into a byte at a time: the
// bytes '0' (0x30) and '1' (0x31) differ from 0x30 only in the low bit,
// and one multiply gathers the eight low bits into MSB-first order.
func ParseBits(text string) (String, error) {
	n := len(text)
	data := make([]byte, (n+7)>>3)
	i := 0
	for ; i+8 <= n; i += 8 {
		x := uint64(text[i]) | uint64(text[i+1])<<8 | uint64(text[i+2])<<16 | uint64(text[i+3])<<24 |
			uint64(text[i+4])<<32 | uint64(text[i+5])<<40 | uint64(text[i+6])<<48 | uint64(text[i+7])<<56
		if x&0xFEFEFEFEFEFEFEFE != 0x3030303030303030 {
			break // the byte loop below finds and names the bad rune
		}
		// Byte k's low bit sits at bit 8k; the multiply by Σ 2^(9j)
		// sends it to bit 63-k, so the top byte reads char 0 first.
		data[i>>3] = byte((x & 0x0101010101010101) * 0x8040201008040201 >> 56)
	}
	for ; i < n; i++ {
		c := text[i]
		if c&^1 != '0' {
			r, _ := utf8.DecodeRuneInString(text[i:])
			return Empty, &BitError{Rune: r}
		}
		data[i>>3] |= (c & 1) << (7 - uint(i&7))
	}
	return String{data: data, n: n}, nil
}

// Len returns the number of bits in s.
func (s String) Len() int { return s.n }

// IsEmpty reports whether s is the empty string ε.
func (s String) IsEmpty() bool { return s.n == 0 }

// Bit returns the i-th bit (0-indexed from the most significant end).
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: Bit(%d) out of range [0,%d)", i, s.n))
	}
	return s.data[i>>3]&(1<<(7-uint(i&7))) != 0
}

// Equal reports whether s and t contain the same bits.
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// String renders the bits as a "0"/"1" text string, a packed byte (eight
// characters) at a time.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	var chunk [8]byte
	for i, x := range s.data {
		// Spread bit 7-k of x into byte k, turn each nonzero byte into
		// 1 (adding 0x7F carries into its top bit), then add '0'.
		t := uint64(x) * 0x0101010101010101 & 0x0102040810204080
		t = (t+0x7F7F7F7F7F7F7F7F)>>7&0x0101010101010101 | 0x3030303030303030
		binary.LittleEndian.PutUint64(chunk[:], t)
		b.Write(chunk[:min(8, s.n-8*i)])
	}
	return b.String()
}

// Concat returns the concatenation s·t.
func (s String) Concat(t String) String {
	var w Writer
	w.WriteBitString(s)
	w.WriteBitString(t)
	return w.String()
}

// Truncate returns the prefix of s with at most n bits. Truncation is used
// by the lower-bound adversaries to model schemes whose proofs are too
// small.
func (s String) Truncate(n int) String {
	if n >= s.n {
		return s
	}
	if n <= 0 {
		return Empty
	}
	var w Writer
	for i := 0; i < n; i++ {
		w.WriteBit(s.Bit(i))
	}
	return w.String()
}

// Key returns a comparable representation of s, usable as a map key. Two
// strings have equal keys iff they are Equal.
func (s String) Key() string {
	return fmt.Sprintf("%d:%x", s.n, s.data)
}

// Writer builds a String bit by bit. The zero value is ready to use.
type Writer struct {
	data []byte
	n    int
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.n&7 == 0 {
		w.data = append(w.data, 0)
	}
	if b {
		w.data[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteUint appends v as exactly width bits, most significant first. It
// panics if v does not fit in width bits; proofs must be exact about their
// advertised size.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstr: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstr: value %d does not fit in %d bits", v, width))
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
}

// WriteBitString appends all bits of s.
func (w *Writer) WriteBitString(s String) {
	for i := 0; i < s.n; i++ {
		w.WriteBit(s.Bit(i))
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// String returns the accumulated bits. The Writer may keep being used; the
// returned String is an independent snapshot.
func (w *Writer) String() String {
	data := make([]byte, len(w.data))
	copy(data, w.data)
	return String{data: data, n: w.n}
}

// Reader consumes a String from the most significant end. Reads past the
// end set Err rather than panicking: verifiers must treat malformed
// (adversarial) proofs as invalid, not crash on them.
type Reader struct {
	s   String
	pos int
	err bool
}

// NewReader returns a Reader over s.
func NewReader(s String) *Reader {
	return &Reader{s: s}
}

// ReadBit reads one bit. On underflow it returns false and sets Err.
func (r *Reader) ReadBit() bool {
	if r.pos >= r.s.n {
		r.err = true
		return false
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b
}

// ReadUint reads a width-bit unsigned integer (MSB first). On underflow it
// consumes the rest of the string, returns 0 and sets Err; once Err is set
// every read still advances but returns 0. Widths over 64 keep the last
// 64 bits read, as shifting them in one at a time would.
//
// The bits are gathered a byte at a time with shifts and masks, not one
// ReadBit per bit: a verifier reads every label of its view, so this loop
// is paid deg+1 times per label per check.
func (r *Reader) ReadUint(width int) uint64 {
	if width <= 0 {
		return 0
	}
	if width > r.s.n-r.pos {
		r.pos = r.s.n
		r.err = true
		return 0
	}
	pos, end := r.pos, r.pos+width
	r.pos = end
	if r.err {
		return 0
	}
	if width > 64 {
		pos = end - 64
	}
	var v uint64
	for pos < end {
		off := pos & 7
		take := min(8-off, end-pos)
		b := r.s.data[pos>>3] >> uint(8-off-take) & (1<<uint(take) - 1)
		v = v<<uint(take) | uint64(b)
		pos += take
	}
	return v
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// Err reports whether any read ran past the end of the string.
func (r *Reader) Err() bool { return r.err }

// AtEnd reports whether the reader consumed the string exactly, with no
// underflow. Verifiers use it to reject proofs with trailing garbage when
// the encoding is meant to be exact.
func (r *Reader) AtEnd() bool { return !r.err && r.pos == r.s.n }

// UintWidth returns the number of bits needed to store v: 0 for v == 0,
// otherwise ⌈log₂(v+1)⌉.
func UintWidth(v uint64) int {
	w := 0
	for v != 0 {
		w++
		v >>= 1
	}
	return w
}

// WidthFor returns the fixed width needed to address values 0..max,
// i.e. UintWidth(max), but at least 1 so that a field is always present.
func WidthFor(max uint64) int {
	if w := UintWidth(max); w > 0 {
		return w
	}
	return 1
}
