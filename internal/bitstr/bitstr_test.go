package bitstr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyString(t *testing.T) {
	var s String
	if s.Len() != 0 {
		t.Errorf("zero String has Len %d, want 0", s.Len())
	}
	if !s.IsEmpty() {
		t.Error("zero String is not IsEmpty")
	}
	if !s.Equal(Empty) {
		t.Error("zero String != Empty")
	}
	if s.String() != "" {
		t.Errorf("zero String renders %q, want empty", s.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "01", "10", "0110", "11111111", "101010101", "0000000000000001"}
	for _, c := range cases {
		s := Parse(c)
		if got := s.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
		if s.Len() != len(c) {
			t.Errorf("Parse(%q).Len() = %d, want %d", c, s.Len(), len(c))
		}
	}
}

func TestParseIgnoresSpaces(t *testing.T) {
	if got := Parse("10 01 1").String(); got != "10011" {
		t.Errorf("got %q, want 10011", got)
	}
}

func TestParsePanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Parse(\"012\") did not panic")
		}
	}()
	Parse("012")
}

func TestFromUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
		want  string
	}{
		{0, 1, "0"},
		{1, 1, "1"},
		{5, 3, "101"},
		{5, 8, "00000101"},
		{255, 8, "11111111"},
		{0, 0, ""},
	}
	for _, c := range cases {
		if got := FromUint(c.v, c.width).String(); got != c.want {
			t.Errorf("FromUint(%d,%d) = %q, want %q", c.v, c.width, got, c.want)
		}
	}
}

func TestWriteUintOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteUint(4, 2) did not panic")
		}
	}()
	var w Writer
	w.WriteUint(4, 2)
}

func TestWriteReadRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	w.WriteUint(42, 7)
	w.WriteBit(false)
	w.WriteUint(7, 3)
	s := w.String()
	if s.Len() != 12 {
		t.Fatalf("Len = %d, want 12", s.Len())
	}
	r := NewReader(s)
	if !r.ReadBit() {
		t.Error("first bit: got false")
	}
	if v := r.ReadUint(7); v != 42 {
		t.Errorf("ReadUint(7) = %d, want 42", v)
	}
	if r.ReadBit() {
		t.Error("ninth bit: got true")
	}
	if v := r.ReadUint(3); v != 7 {
		t.Errorf("ReadUint(3) = %d, want 7", v)
	}
	if !r.AtEnd() {
		t.Error("reader not AtEnd after exact read")
	}
}

func TestReaderUnderflow(t *testing.T) {
	r := NewReader(Parse("10"))
	r.ReadUint(3)
	if !r.Err() {
		t.Error("underflow did not set Err")
	}
	if r.AtEnd() {
		t.Error("AtEnd true after underflow")
	}
	// Reads after underflow stay harmless.
	if r.ReadBit() {
		t.Error("ReadBit after underflow returned true")
	}
}

func TestConcat(t *testing.T) {
	a, b := Parse("101"), Parse("0011")
	if got := a.Concat(b).String(); got != "1010011" {
		t.Errorf("Concat = %q", got)
	}
	if got := Empty.Concat(b); !got.Equal(b) {
		t.Errorf("ε·b = %q", got.String())
	}
	if got := a.Concat(Empty); !got.Equal(a) {
		t.Errorf("a·ε = %q", got.String())
	}
}

func TestTruncate(t *testing.T) {
	s := Parse("110101")
	cases := []struct {
		n    int
		want string
	}{
		{0, ""}, {-1, ""}, {1, "1"}, {3, "110"}, {6, "110101"}, {100, "110101"},
	}
	for _, c := range cases {
		if got := s.Truncate(c.n).String(); got != c.want {
			t.Errorf("Truncate(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestKeyDistinguishesLengths(t *testing.T) {
	// "0" and "00" pack into identical bytes; Key must still differ.
	a, b := Parse("0"), Parse("00")
	if a.Key() == b.Key() {
		t.Error("Key collision between \"0\" and \"00\"")
	}
	if !Parse("0110").Equal(Parse("0110")) {
		t.Error("Equal failed on identical strings")
	}
	if Parse("0110").Key() != Parse("0110").Key() {
		t.Error("Key differs on identical strings")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if Parse("01").Equal(Parse("010")) {
		t.Error("prefix reported Equal")
	}
}

func TestUintWidth(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := UintWidth(c.v); got != c.want {
			t.Errorf("UintWidth(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if WidthFor(0) != 1 {
		t.Errorf("WidthFor(0) = %d, want 1", WidthFor(0))
	}
	if WidthFor(5) != 3 {
		t.Errorf("WidthFor(5) = %d, want 3", WidthFor(5))
	}
}

// Property: writing any uint at its natural width and reading it back is
// the identity.
func TestQuickUintRoundTrip(t *testing.T) {
	f := func(v uint64, extra uint8) bool {
		width := UintWidth(v) + int(extra%8)
		if width > 64 {
			width = 64
		}
		if width == 0 {
			width = 1
		}
		if v>>uint(width) != 0 && width < 64 {
			v &= 1<<uint(width) - 1
		}
		s := FromUint(v, width)
		r := NewReader(s)
		return r.ReadUint(width) == v && r.AtEnd()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FromBits round-trips through Bit().
func TestQuickBitsRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		s := FromBits(raw)
		if s.Len() != len(raw) {
			return false
		}
		for i, b := range raw {
			if s.Bit(i) != (b != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Concat length adds up and bits are preserved in order.
func TestQuickConcat(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := FromBits(a), FromBits(b)
		c := sa.Concat(sb)
		if c.Len() != sa.Len()+sb.Len() {
			return false
		}
		for i := 0; i < sa.Len(); i++ {
			if c.Bit(i) != sa.Bit(i) {
				return false
			}
		}
		for i := 0; i < sb.Len(); i++ {
			if c.Bit(sa.Len()+i) != sb.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key is injective over distinct random strings (no collisions
// in a sample) and Equal agrees with Key equality.
func TestQuickKeyEqualAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		na, nb := rng.Intn(20), rng.Intn(20)
		var wa, wb Writer
		for j := 0; j < na; j++ {
			wa.WriteBit(rng.Intn(2) == 1)
		}
		for j := 0; j < nb; j++ {
			wb.WriteBit(rng.Intn(2) == 1)
		}
		a, b := wa.String(), wb.String()
		if a.Equal(b) != (a.Key() == b.Key()) {
			t.Fatalf("Equal/Key disagree on %q vs %q", a, b)
		}
	}
}

func BenchmarkWriterUint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var w Writer
		for j := 0; j < 64; j++ {
			w.WriteUint(uint64(j), 10)
		}
		_ = w.String()
	}
}

// parseBitsRef is the per-rune text parser ParseBits replaced.
func parseBitsRef(text string) (String, rune, bool) {
	var w Writer
	for _, r := range text {
		switch r {
		case '0':
			w.WriteBit(false)
		case '1':
			w.WriteBit(true)
		default:
			return Empty, r, false
		}
	}
	return w.String(), 0, true
}

func TestParseBits(t *testing.T) {
	cases := []struct {
		text string
		bad  rune // 0: valid
	}{
		{"", 0},
		{"1", 0},
		{"01101", 0},
		{"10110010", 0},
		{"101100101", 0},
		{strings.Repeat("0110", 17), 0},
		{"012", '2'},
		{"0000000x1", 'x'},
		{"01010101 1", ' '},
		{"0110é", 'é'},
		{"01\xff", '\uFFFD'},
		{strings.Repeat("1", 23) + "😀", '😀'},
	}
	for _, c := range cases {
		got, err := ParseBits(c.text)
		want, wantBad, wantOK := parseBitsRef(c.text)
		if c.bad == 0 {
			if err != nil || !wantOK {
				t.Errorf("ParseBits(%q): err %v", c.text, err)
				continue
			}
			if !got.Equal(want) || got.String() != c.text {
				t.Errorf("ParseBits(%q) = %q, want %q", c.text, got, want)
			}
			continue
		}
		be, ok := err.(*BitError)
		if !ok || be.Rune != c.bad || wantBad != c.bad {
			t.Errorf("ParseBits(%q): err %v, want a BitError for %q", c.text, err, c.bad)
		}
	}
	if _, err := ParseBits("0x"); err == nil || err.Error() != `bad proof bit 'x'` {
		t.Errorf("error text %v", err)
	}
}

func TestQuickParseBitsAgreesWithReference(t *testing.T) {
	alphabet := []rune{'0', '1', '0', '1', '0', '1', '2', ' ', 'é'}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := 0; i < int(n); i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		text := b.String()
		got, err := ParseBits(text)
		want, bad, ok := parseBitsRef(text)
		if !ok {
			be, isBit := err.(*BitError)
			return isBit && be.Rune == bad
		}
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refReader is the bit-at-a-time Reader that ReadUint's word path
// replaced: one ReadBit per bit, the reference for FuzzReadUint.
type refReader struct {
	s   String
	pos int
	err bool
}

func (r *refReader) readBit() bool {
	if r.pos >= r.s.n {
		r.err = true
		return false
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b
}

func (r *refReader) readUint(width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if r.readBit() {
			v |= 1
		}
	}
	if r.err {
		return 0
	}
	return v
}

// FuzzReadUint drives Reader and refReader through the same sequence of
// reads and demands identical values, positions, Err and AtEnd after
// every step. Each op byte picks a read: 255 is ReadBit, anything else is
// ReadUint of width op%80 — so widths 0, 1..64 and over 64 all occur, and
// reads running past the end are routine. startErr begins both readers
// with Err already set at bit start.
func FuzzReadUint(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C, 0xFF, 0x00, 0x81}, uint8(3), []byte{6, 7, 1, 255, 13, 2}, uint16(0), false)
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89}, uint8(0), []byte{64, 8}, uint16(0), false)
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD}, uint8(5), []byte{3, 70, 1}, uint16(0), false)
	f.Add([]byte{0xFF, 0xFF}, uint8(1), []byte{0, 9, 9, 255, 1}, uint16(0), false)
	f.Add([]byte{0x5A, 0x5A, 0x5A}, uint8(0), []byte{5, 4, 79}, uint16(7), true)
	f.Add([]byte{}, uint8(0), []byte{0, 1, 255}, uint16(0), false)
	f.Fuzz(func(t *testing.T, data []byte, trim uint8, ops []byte, start uint16, startErr bool) {
		n := len(data) * 8
		if n > 0 {
			n -= int(trim % 8)
		}
		s := String{data: data, n: n}
		st := 0
		if startErr && n > 0 {
			st = int(start) % (n + 1)
		}
		got := &Reader{s: s, pos: st, err: startErr}
		want := &refReader{s: s, pos: st, err: startErr}
		for i, op := range ops {
			if op == 255 {
				if g, w := got.ReadBit(), want.readBit(); g != w {
					t.Fatalf("op %d ReadBit = %v, want %v", i, g, w)
				}
			} else {
				width := int(op % 80)
				if g, w := got.ReadUint(width), want.readUint(width); g != w {
					t.Fatalf("op %d ReadUint(%d) at bit %d of %d = %#x, want %#x", i, width, want.pos, n, g, w)
				}
			}
			if got.Remaining() != n-want.pos || got.Err() != want.err {
				t.Fatalf("op %d: remaining %d err %v, want %d %v", i, got.Remaining(), got.Err(), n-want.pos, want.err)
			}
			if got.AtEnd() != (!want.err && want.pos == n) {
				t.Fatalf("op %d: AtEnd %v", i, got.AtEnd())
			}
		}
	})
}

// BenchmarkReadUint decodes a slab of labels field by field, as a
// radius-1 verifier does for every label in its view, and reports the
// cost per bit read. Field widths cycle through a tree label's typical
// mix: 6-bit width headers, id- and distance-sized fields and flags.
func BenchmarkReadUint(b *testing.B) {
	widths := []int{6, 17, 17, 6, 9, 1, 6, 17, 1}
	per := 0
	for _, w := range widths {
		per += w
	}
	rng := rand.New(rand.NewSource(1))
	labels := make([]String, 1024)
	for i := range labels {
		var w Writer
		for _, width := range widths {
			w.WriteUint(rng.Uint64()>>(64-uint(width)), width)
		}
		labels[i] = w.String()
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range labels {
			r := NewReader(s)
			for _, w := range widths {
				sink ^= r.ReadUint(w)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(labels)*per), "ns/bit")
	if sink == 42 {
		b.Log(sink)
	}
}
