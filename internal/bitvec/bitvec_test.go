package bitvec

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// toBig converts a Value to a non-negative big.Int for reference checks.
func toBig(v Value) *big.Int {
	r := new(big.Int)
	for i := wordsFor(v.Width()) - 1; i >= 0; i-- {
		r.Lsh(r, 64)
		r.Or(r, new(big.Int).SetUint64(v.word(i)))
	}
	return r
}

// randValue returns a random value of the given width.
func randValue(rnd *rand.Rand, width int) Value {
	words := make([]uint64, wordsFor(width))
	for i := range words {
		words[i] = rnd.Uint64()
	}
	return FromWords(width, words)
}

func mask(width int) *big.Int {
	return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(width)), big.NewInt(1))
}

// signed reads v as a two's-complement number.
func signed(v Value) *big.Int {
	x := toBig(v)
	if v.Sign() {
		x.Sub(x, new(big.Int).Lsh(big.NewInt(1), uint(v.Width())))
	}
	return x
}

// maxTestWidth makes every property test cross both representation
// boundaries: 64/65 (one inline word to two) and 128/129 (inline to the
// heap slice).
const maxTestWidth = 200

// operands returns the values a property test tries at width w: zero, one,
// all ones, the sign bit alone, and random values.
func operands(rnd *rand.Rand, w, random int) []Value {
	vs := []Value{New(w), FromUint64(w, 1), New(w).Not(), New(w).WithBit(w-1, 1)}
	for i := 0; i < random; i++ {
		vs = append(vs, randValue(rnd, w))
	}
	return vs
}

// canonical reports a value whose fields break the representation
// invariants: inline up to 128 bits, out of line above, zero bits at and
// above the width.
func canonical(v Value) error {
	w := v.Width()
	switch {
	case w <= 128 && v.wide.p != nil:
		return fmt.Errorf("%d-bit value held out of line", w)
	case w > 128 && (v.wide.p == nil || len(*v.wide.p) != wordsFor(w) || v.lo|v.hi != 0):
		return fmt.Errorf("%d-bit value not held in %d words out of line", w, wordsFor(w))
	case w <= 64 && (v.hi != 0 || v.lo&^mask64(w) != 0),
		w > 64 && w <= 128 && v.hi&^mask64(w-64) != 0:
		return fmt.Errorf("%d-bit value has bits set above its width", w)
	case w > 128 && w%64 != 0 && (*v.wide.p)[len(*v.wide.p)-1]>>uint(w%64) != 0:
		return fmt.Errorf("%d-bit value has bits set above its width", w)
	}
	return nil
}

// fromBig builds, through FromWords, the value of width w holding x mod 2^w.
func fromBig(w int, x *big.Int) Value {
	x = new(big.Int).And(x, mask(w))
	words := make([]uint64, wordsFor(w))
	for i := range words {
		words[i] = new(big.Int).Rsh(x, uint(64*i)).Uint64()
	}
	return FromWords(w, words)
}

// expect fails the test unless got is canonical and Eq the value of width w
// holding want mod 2^w.
func expect(t *testing.T, w int, got Value, want *big.Int, format string, args ...any) {
	t.Helper()
	err := canonical(got)
	if ref := fromBig(w, want); err == nil && !got.Eq(ref) {
		err = fmt.Errorf("got %s, want %s", got, ref)
	}
	if err != nil {
		t.Fatalf("%s: %v", fmt.Sprintf(format, args...), err)
	}
}

func TestFromUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		return FromUint64(64, v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= maxTestWidth; w++ {
		v := uint64(0xfedcba9876543210)
		expect(t, w, FromUint64(w, v), new(big.Int).SetUint64(v), "FromUint64(%d, %#x)", w, v)
	}
}

func TestFromInt64SignExtension(t *testing.T) {
	cases := []struct {
		width int
		v     int64
		want  int64
	}{
		{8, -1, -1},
		{8, 127, 127},
		{8, 128, -128},
		{4, 7, 7},
		{4, 8, -8},
		{100, -5, -5},
		{64, -1, -1},
	}
	for _, c := range cases {
		got := FromInt64(c.width, c.v).Int64()
		if got != c.want {
			t.Errorf("FromInt64(%d, %d).Int64() = %d, want %d", c.width, c.v, got, c.want)
		}
	}
	for w := 1; w <= maxTestWidth; w++ {
		for _, v := range []int64{-5, 5, -1 << 63} {
			expect(t, w, FromInt64(w, v), big.NewInt(v), "FromInt64(%d, %d)", w, v)
		}
	}
}

// checkBinary runs op on every width from 1 to maxTestWidth and on every
// pair of that width's operands, against ref computed with math/big.
func checkBinary(t *testing.T, name string, op func(a, b Value) Value, ref func(a, b *big.Int) *big.Int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(1))
	for w := 1; w <= maxTestWidth; w++ {
		vs := operands(rnd, w, 3)
		for _, a := range vs {
			for _, b := range vs {
				expect(t, w, op(a, b), ref(toBig(a), toBig(b)), "%s(%s, %s)", name, a, b)
			}
		}
	}
}

func TestAdd(t *testing.T) {
	checkBinary(t, "Add", Value.Add, func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) })
}

func TestSub(t *testing.T) {
	checkBinary(t, "Sub", Value.Sub, func(a, b *big.Int) *big.Int { return new(big.Int).Sub(a, b) })
}

func TestMul(t *testing.T) {
	checkBinary(t, "Mul", Value.Mul, func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) })
}

func TestAnd(t *testing.T) {
	checkBinary(t, "And", Value.And, func(a, b *big.Int) *big.Int { return new(big.Int).And(a, b) })
}

func TestOr(t *testing.T) {
	checkBinary(t, "Or", Value.Or, func(a, b *big.Int) *big.Int { return new(big.Int).Or(a, b) })
}

func TestXor(t *testing.T) {
	checkBinary(t, "Xor", Value.Xor, func(a, b *big.Int) *big.Int { return new(big.Int).Xor(a, b) })
}

// TestNot also checks Neg, the other one-operand operation.
func TestNot(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for w := 1; w <= maxTestWidth; w++ {
		for _, a := range operands(rnd, w, 3) {
			expect(t, w, a.Not(), new(big.Int).Xor(toBig(a), mask(w)), "Not(%s)", a)
			expect(t, w, a.Neg(), new(big.Int).Neg(toBig(a)), "Neg(%s)", a)
		}
	}
}

func TestDivMod(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for w := 1; w <= maxTestWidth; w++ {
		vs := operands(rnd, w, 2)
		// A divisor of about half the dividend's width keeps both the
		// quotient and the remainder wide.
		vs = append(vs, randValue(rnd, w).ShrL(w/2))
		for _, a := range vs {
			for _, b := range vs {
				q, r := a.DivU(b), a.ModU(b)
				if b.IsZero() {
					if !q.Eq(New(w).Not()) || canonical(q) != nil {
						t.Fatalf("DivU(%s, 0) = %s, want all ones", a, q)
					}
					if !r.Eq(a) || canonical(r) != nil {
						t.Fatalf("ModU(%s, 0) = %s, want the dividend", a, r)
					}
					continue
				}
				expect(t, w, q, new(big.Int).Div(toBig(a), toBig(b)), "DivU(%s, %s)", a, b)
				expect(t, w, r, new(big.Int).Mod(toBig(a), toBig(b)), "ModU(%s, %s)", a, b)
			}
		}
	}
}

func TestAddCarry(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for w := 1; w <= maxTestWidth; w++ {
		vs := operands(rnd, w, 3)
		for _, a := range vs {
			for _, b := range vs {
				got, carry := a.AddCarry(b)
				sum := new(big.Int).Add(toBig(a), toBig(b))
				if wantCarry := sum.Cmp(mask(w)) > 0; carry != wantCarry {
					t.Fatalf("AddCarry(%s, %s) carry = %v, want %v", a, b, carry, wantCarry)
				}
				expect(t, w, got, sum, "AddCarry(%s, %s)", a, b)
			}
		}
	}
}

func TestSubBorrow(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for w := 1; w <= maxTestWidth; w++ {
		vs := operands(rnd, w, 3)
		for _, a := range vs {
			for _, b := range vs {
				got, borrow := a.SubBorrow(b)
				if borrow != (toBig(a).Cmp(toBig(b)) < 0) {
					t.Fatalf("SubBorrow(%s, %s) borrow = %v", a, b, borrow)
				}
				expect(t, w, got, new(big.Int).Sub(toBig(a), toBig(b)), "SubBorrow(%s, %s)", a, b)
			}
		}
	}
}

func TestShifts(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for w := 1; w <= maxTestWidth; w++ {
		for _, a := range operands(rnd, w, 2) {
			for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, w - 1, w, w + 1, rnd.Intn(w), MaxWidth} {
				expect(t, w, a.Shl(n), new(big.Int).Lsh(toBig(a), uint(n)), "Shl(%s, %d)", a, n)
				expect(t, w, a.ShrL(n), new(big.Int).Rsh(toBig(a), uint(n)), "ShrL(%s, %d)", a, n)
				// Reference: shift of the sign-extended value.
				expect(t, w, a.ShrA(n), new(big.Int).Rsh(signed(a), uint(n)), "ShrA(%s, %d)", a, n)
			}
		}
	}
}

// TestAmount pins the shift-amount clamp: an amount is the full unsigned
// value, and anything at or beyond MaxWidth reads as MaxWidth.
func TestAmount(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want int
	}{
		{FromUint64(8, 5), 5},
		{FromUint64(32, MaxWidth), MaxWidth},
		{FromUint64(32, MaxWidth+1), MaxWidth},
		{FromUint64(64, 1<<63), MaxWidth},
		{FromUint64(64, ^uint64(0)), MaxWidth},
		{FromWords(72, []uint64{0, 1}), MaxWidth},
		{FromWords(96, []uint64{MaxWidth + 1, 0}), MaxWidth},
		{FromWords(96, []uint64{3, 1}), MaxWidth},
		{FromWords(128, []uint64{7, 0}), 7},
		{FromWords(200, []uint64{7, 0, 0, 1}), MaxWidth},
		{FromWords(200, []uint64{9}), 9},
	} {
		if got := c.v.Amount(); got != c.want {
			t.Errorf("%s.Amount() = %d, want %d", c.v, got, c.want)
		}
	}
	a := FromUint64(8, 0x81)
	for _, n := range []int{8, MaxWidth} {
		if got := a.Shl(n); !got.IsZero() {
			t.Errorf("Shl(%d) = %s, want 0", n, got)
		}
		if got := a.ShrL(n); !got.IsZero() {
			t.Errorf("ShrL(%d) = %s, want 0", n, got)
		}
		if got := a.ShrA(n); got.Uint64() != 0xff {
			t.Errorf("ShrA(%d) = %s, want 8'hff", n, got)
		}
	}
	// A 96-bit amount above MaxWidth shifts every bit of a wide value out.
	b := New(96).Not()
	n := FromWords(96, []uint64{0, 1}).Amount()
	if got := b.Shl(n); !got.Eq(New(96)) {
		t.Errorf("Shl(%d) of 96 ones = %s, want 0", n, got)
	}
	if got := b.ShrL(n); !got.Eq(New(96)) {
		t.Errorf("ShrL(%d) of 96 ones = %s, want 0", n, got)
	}
	if got := b.ShrA(n); !got.Eq(b) {
		t.Errorf("ShrA(%d) of 96 ones = %s, want all ones", n, got)
	}
}

func TestSliceConcatInverse(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for w := 2; w <= maxTestWidth; w++ {
		for _, a := range operands(rnd, w, 2) {
			cut := 1 + rnd.Intn(w-1)
			hi := a.Slice(w-1, cut)
			lo := a.Slice(cut-1, 0)
			expect(t, w-cut, hi, new(big.Int).Rsh(toBig(a), uint(cut)), "Slice(%s, %d, %d)", a, w-1, cut)
			expect(t, cut, lo, toBig(a), "Slice(%s, %d, 0)", a, cut-1)
			if got := hi.Concat(lo); !got.Eq(a) || canonical(got) != nil {
				t.Fatalf("Concat(Slice hi, Slice lo) = %s, want %s", got, a)
			}
			// An arbitrary slice, and an arbitrary concatenation.
			l := rnd.Intn(w)
			h := l + rnd.Intn(w-l)
			expect(t, h-l+1, a.Slice(h, l), new(big.Int).Rsh(toBig(a), uint(l)), "Slice(%s, %d, %d)", a, h, l)
			b := randValue(rnd, 1+rnd.Intn(maxTestWidth))
			want := new(big.Int).Or(new(big.Int).Lsh(toBig(a), uint(b.Width())), toBig(b))
			expect(t, w+b.Width(), a.Concat(b), want, "Concat(%s, %s)", a, b)
		}
	}
}

// TestRepresentationBoundaries checks the operations whose result changes
// representation: inline parts joined out of line, wide values sliced or
// truncated back inline, and results of exactly 64 and 128 bits.
func TestRepresentationBoundaries(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	a100, b40 := randValue(rnd, 100), randValue(rnd, 40)
	expect(t, 140, a100.Concat(b40), new(big.Int).Or(new(big.Int).Lsh(toBig(a100), 40), toBig(b40)), "Concat(100 + 40 bits)")
	a64, b64 := randValue(rnd, 64), randValue(rnd, 64)
	expect(t, 128, a64.Concat(b64), new(big.Int).Or(new(big.Int).Lsh(toBig(a64), 64), toBig(b64)), "Concat(64 + 64 bits)")
	a32, b32 := randValue(rnd, 32), randValue(rnd, 32)
	expect(t, 64, a32.Concat(b32), new(big.Int).Or(new(big.Int).Lsh(toBig(a32), 32), toBig(b32)), "Concat(32 + 32 bits)")

	v := randValue(rnd, 200)
	for _, s := range [][2]int{{150, 30}, {199, 0}, {199, 72}, {140, 13}, {127, 0}, {128, 1}, {191, 64}, {63, 0}, {199, 199}} {
		hi, lo := s[0], s[1]
		expect(t, hi-lo+1, v.Slice(hi, lo), new(big.Int).Rsh(toBig(v), uint(lo)), "Slice(200-bit, %d, %d)", hi, lo)
	}

	targets := []int{1, 63, 64, 65, 127, 128, 129, 200}
	for w := 1; w <= maxTestWidth; w++ {
		for _, x := range operands(rnd, w, 1) {
			for _, to := range append(targets, w-1, w+1) {
				if to < 1 {
					continue
				}
				expect(t, to, x.Trunc(to), toBig(x), "Trunc(%s, %d)", x, to)
				expect(t, to, x.ZeroExt(to), toBig(x), "ZeroExt(%s, %d)", x, to)
				want := toBig(x)
				if to > w {
					want = signed(x)
				}
				expect(t, to, x.SignExt(to), want, "SignExt(%s, %d)", x, to)
			}
		}
	}
}

func TestExtensions(t *testing.T) {
	v := FromInt64(8, -3)
	if got := v.SignExt(16).Int64(); got != -3 {
		t.Errorf("SignExt(-3) = %d", got)
	}
	if got := v.ZeroExt(16).Uint64(); got != 0xfd {
		t.Errorf("ZeroExt(0xfd) = %#x", got)
	}
	if got := v.Trunc(4).Uint64(); got != 0xd {
		t.Errorf("Trunc(4) = %#x", got)
	}
	if got := v.SignExt(8); !got.Eq(v) {
		t.Errorf("SignExt to same width changed value")
	}
}

func TestCompare(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for w := 1; w <= maxTestWidth; w++ {
		vs := operands(rnd, w, 3)
		for _, a := range vs {
			for _, b := range vs {
				if got, want := a.CmpU(b), toBig(a).Cmp(toBig(b)); got != want {
					t.Fatalf("CmpU(%s, %s) = %d, want %d", a, b, got, want)
				}
				if got, want := a.CmpS(b), signed(a).Cmp(signed(b)); got != want {
					t.Fatalf("CmpS(%s, %s) = %d, want %d", a, b, got, want)
				}
				if got, want := a.Eq(b), toBig(a).Cmp(toBig(b)) == 0; got != want {
					t.Fatalf("Eq(%s, %s) = %v, want %v", a, b, got, want)
				}
				if got, want := a.IsZero(), toBig(a).Sign() == 0; got != want {
					t.Fatalf("IsZero(%s) = %v, want %v", a, got, want)
				}
			}
		}
	}
}

func TestNegIsSubFromZero(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for w := 1; w <= maxTestWidth; w++ {
		for _, a := range operands(rnd, w, 2) {
			if !a.Neg().Add(a).IsZero() {
				t.Fatalf("a + (-a) != 0 for %s", a)
			}
		}
	}
}

func TestParseBits(t *testing.T) {
	v, err := ParseBits("1010")
	if err != nil {
		t.Fatal(err)
	}
	if v.Width() != 4 || v.Uint64() != 10 {
		t.Fatalf("ParseBits(1010) = %s", v)
	}
	if v.BitString() != "1010" {
		t.Fatalf("BitString = %q", v.BitString())
	}
	if _, err := ParseBits("10x0"); err == nil {
		t.Fatal("expected error for invalid character")
	}
	if _, err := ParseBits(""); err == nil {
		t.Fatal("expected error for empty string")
	}
	rnd := rand.New(rand.NewSource(11))
	for w := 1; w <= maxTestWidth; w++ {
		x := randValue(rnd, w)
		got, err := ParseBits(x.BitString())
		if err != nil {
			t.Fatal(err)
		}
		expect(t, w, got, toBig(x), "ParseBits(%s)", x.BitString())
	}
}

func TestBitAccess(t *testing.T) {
	v := New(70)
	v2 := v.WithBit(65, 1).WithBit(0, 1)
	if v2.Bit(65) != 1 || v2.Bit(0) != 1 || v2.Bit(64) != 0 {
		t.Fatalf("WithBit/Bit inconsistent: %s", v2)
	}
	if !v.IsZero() {
		t.Fatal("WithBit mutated the receiver")
	}
	if v2.Bit(-1) != 0 || v2.Bit(1000) != 0 {
		t.Fatal("out-of-range Bit should read 0")
	}
	w := New(200)
	w2 := w.WithBit(150, 1)
	if w2.Bit(150) != 1 || !w.IsZero() || canonical(w2) != nil {
		t.Fatalf("WithBit on a 200-bit value: %s from %s", w2, w)
	}
	if w3 := w2.WithBit(150, 0); !w3.Eq(w) || w2.Bit(150) != 1 {
		t.Fatal("clearing a bit changed the value it was cleared from")
	}
}

func TestString(t *testing.T) {
	if got := FromUint64(8, 0x3f).String(); got != "8'h3f" {
		t.Errorf("String = %q", got)
	}
	if got := FromUint64(12, 0).String(); got != "12'h0" {
		t.Errorf("String(0) = %q", got)
	}
	for w := 1; w <= maxTestWidth; w++ {
		x := New(w).Not()
		if got, want := x.String(), fmt.Sprintf("%d'h%s", w, mask(w).Text(16)); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestInvalidWidthPanics(t *testing.T) {
	for _, w := range []int{0, -1, MaxWidth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched widths did not panic")
		}
	}()
	FromUint64(8, 1).Add(FromUint64(9, 1))
}

// TestMul64AgainstBig checks the full product of two 64-bit words, the
// 128-bit Mul's carry into its high word.
func TestMul64AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		got := FromUint64(128, a).Mul(FromUint64(128, b))
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		return toBig(got).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEqValue(t *testing.T) {
	a := FromUint64(8, 5)
	b := FromUint64(100, 5)
	if !a.EqValue(b) {
		t.Error("EqValue should ignore width")
	}
	if a.Eq(b) {
		t.Error("Eq should respect width")
	}
	c := FromUint64(200, 5)
	if !c.EqValue(a) || !b.EqValue(c) || c.EqValue(FromWords(100, []uint64{5, 1})) {
		t.Error("EqValue across representations")
	}
}

// TestInlineOpsDoNotAllocate pins the point of the two-word form: no
// operation on 96-bit values, the width of SPAM's instruction word,
// touches the heap.
func TestInlineOpsDoNotAllocate(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	a, b := randValue(rnd, 96), randValue(rnd, 96)
	neg := a.WithBit(95, 1)
	var sink Value
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Slice", func() { sink = a.Slice(95, 20) }},
		{"And", func() { sink = a.And(b) }},
		{"Or", func() { sink = a.Or(b) }},
		{"Xor", func() { sink = a.Xor(b) }},
		{"Not", func() { sink = a.Not() }},
		{"Eq", func() { _ = a.Eq(b) }},
		{"Concat", func() { sink = a.Slice(60, 0).Concat(b.Slice(40, 0)) }},
		{"Shl", func() { sink = a.Shl(70) }},
		{"ShrL", func() { sink = a.ShrL(70) }},
		{"ShrA", func() { sink = neg.ShrA(70) }},
		{"Add", func() { sink = a.Add(b) }},
		{"Sub", func() { sink = a.Sub(b) }},
		{"Mul", func() { sink = a.Mul(b) }},
		{"Trunc", func() { sink = a.Trunc(80) }},
		{"SignExt", func() { sink = neg.Slice(95, 16).SignExt(96) }},
		{"CmpU", func() { _ = a.CmpU(b) }},
		{"DivU", func() { sink = a.DivU(b.ShrL(40)) }},
		{"FromUint64", func() { sink = FromUint64(96, 5) }},
	} {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s on 96-bit values: %v allocations, want 0", c.name, n)
		}
	}
	_ = sink
}

// TestValueSize pins the struct at four words, so a Value passes in
// registers and copies without a loop.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want at most 32", n)
	}
}
