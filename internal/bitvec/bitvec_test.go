package bitvec

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
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

// widths is an awkward mix of sizes: 1-bit, word-boundary and multi-word.
var widths = []int{1, 3, 7, 8, 16, 31, 32, 33, 40, 63, 64, 65, 100, 128, 129, 200}

func TestFromUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		return FromUint64(64, v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
}

func checkBinary(t *testing.T, name string, op func(a, b Value) Value, ref func(a, b, m *big.Int) *big.Int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		w := widths[rnd.Intn(len(widths))]
		a, b := randValue(rnd, w), randValue(rnd, w)
		got := op(a, b)
		if got.Width() != w {
			t.Fatalf("%s: result width %d, want %d", name, got.Width(), w)
		}
		m := mask(w)
		want := new(big.Int).And(ref(toBig(a), toBig(b), m), m)
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("%s(%s, %s) = %s, want %s", name, a, b, got, want.Text(16))
		}
	}
}

func TestAdd(t *testing.T) {
	checkBinary(t, "Add", Value.Add, func(a, b, m *big.Int) *big.Int { return new(big.Int).Add(a, b) })
}

func TestSub(t *testing.T) {
	checkBinary(t, "Sub", Value.Sub, func(a, b, m *big.Int) *big.Int { return new(big.Int).Sub(a, b) })
}

func TestMul(t *testing.T) {
	checkBinary(t, "Mul", Value.Mul, func(a, b, m *big.Int) *big.Int { return new(big.Int).Mul(a, b) })
}

func TestAnd(t *testing.T) {
	checkBinary(t, "And", Value.And, func(a, b, m *big.Int) *big.Int { return new(big.Int).And(a, b) })
}

func TestOr(t *testing.T) {
	checkBinary(t, "Or", Value.Or, func(a, b, m *big.Int) *big.Int { return new(big.Int).Or(a, b) })
}

func TestXor(t *testing.T) {
	checkBinary(t, "Xor", Value.Xor, func(a, b, m *big.Int) *big.Int { return new(big.Int).Xor(a, b) })
}

func TestDivMod(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		w := widths[rnd.Intn(len(widths))]
		a, b := randValue(rnd, w), randValue(rnd, w)
		if b.IsZero() {
			if !a.DivU(b).Eq(New(w).Not()) {
				t.Fatalf("div by zero should be all ones")
			}
			if !a.ModU(b).Eq(a) {
				t.Fatalf("mod by zero should be the dividend")
			}
			continue
		}
		q, r := a.DivU(b), a.ModU(b)
		wantQ := new(big.Int).Div(toBig(a), toBig(b))
		wantR := new(big.Int).Mod(toBig(a), toBig(b))
		if toBig(q).Cmp(wantQ) != 0 || toBig(r).Cmp(wantR) != 0 {
			t.Fatalf("divmod(%s, %s) = %s, %s; want %s, %s", a, b, q, r, wantQ, wantR)
		}
	}
}

func TestAddCarry(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		w := widths[rnd.Intn(len(widths))]
		a, b := randValue(rnd, w), randValue(rnd, w)
		_, carry := a.AddCarry(b)
		sum := new(big.Int).Add(toBig(a), toBig(b))
		wantCarry := sum.Cmp(mask(w)) > 0
		if carry != wantCarry {
			t.Fatalf("AddCarry(%s, %s) carry = %v, want %v", a, b, carry, wantCarry)
		}
	}
}

func TestSubBorrow(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		w := widths[rnd.Intn(len(widths))]
		a, b := randValue(rnd, w), randValue(rnd, w)
		_, borrow := a.SubBorrow(b)
		if borrow != (toBig(a).Cmp(toBig(b)) < 0) {
			t.Fatalf("SubBorrow(%s, %s) borrow = %v", a, b, borrow)
		}
	}
}

func TestShifts(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		w := widths[rnd.Intn(len(widths))]
		a := randValue(rnd, w)
		n := rnd.Intn(w + 10)
		m := mask(w)

		gotL := a.Shl(n)
		wantL := new(big.Int).And(new(big.Int).Lsh(toBig(a), uint(n)), m)
		if toBig(gotL).Cmp(wantL) != 0 {
			t.Fatalf("Shl(%s, %d) = %s, want %s", a, n, gotL, wantL.Text(16))
		}

		gotR := a.ShrL(n)
		wantR := new(big.Int).Rsh(toBig(a), uint(n))
		if toBig(gotR).Cmp(wantR) != 0 {
			t.Fatalf("ShrL(%s, %d) = %s, want %s", a, n, gotR, wantR.Text(16))
		}

		gotA := a.ShrA(n)
		// Reference: shift of the sign-extended value.
		ext := toBig(a)
		if a.Sign() {
			ext = new(big.Int).Sub(ext, new(big.Int).Lsh(big.NewInt(1), uint(w)))
		}
		wantA := new(big.Int).And(new(big.Int).Rsh(ext, uint(n)), m)
		if toBig(gotA).Cmp(wantA) != 0 {
			t.Fatalf("ShrA(%s, %d) = %s, want %s", a, n, gotA, wantA.Text(16))
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
		{FromWords(128, []uint64{7, 0}), 7},
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
}

func TestSliceConcatInverse(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		w := 2 + rnd.Intn(190)
		a := randValue(rnd, w)
		cut := 1 + rnd.Intn(w-1)
		hi := a.Slice(w-1, cut)
		lo := a.Slice(cut-1, 0)
		if got := hi.Concat(lo); !got.Eq(a) {
			t.Fatalf("Concat(Slice hi, Slice lo) = %s, want %s", got, a)
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
	for i := 0; i < 300; i++ {
		w := widths[rnd.Intn(len(widths))]
		a, b := randValue(rnd, w), randValue(rnd, w)
		if got, want := a.CmpU(b), toBig(a).Cmp(toBig(b)); got != want {
			t.Fatalf("CmpU(%s, %s) = %d, want %d", a, b, got, want)
		}
		sa, sb := toBig(a), toBig(b)
		if a.Sign() {
			sa = new(big.Int).Sub(sa, new(big.Int).Lsh(big.NewInt(1), uint(w)))
		}
		if b.Sign() {
			sb = new(big.Int).Sub(sb, new(big.Int).Lsh(big.NewInt(1), uint(w)))
		}
		if got, want := a.CmpS(b), sa.Cmp(sb); got != want {
			t.Fatalf("CmpS(%s, %s) = %d, want %d", a, b, got, want)
		}
	}
}

func TestNegIsSubFromZero(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		w := widths[rnd.Intn(len(widths))]
		a := randValue(rnd, w)
		if !a.Neg().Add(a).IsZero() {
			t.Fatalf("a + (-a) != 0 for %s", a)
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
}

func TestString(t *testing.T) {
	if got := FromUint64(8, 0x3f).String(); got != "8'h3f" {
		t.Errorf("String = %q", got)
	}
	if got := FromUint64(12, 0).String(); got != "12'h0" {
		t.Errorf("String(0) = %q", got)
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

func TestMul64AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		got.Or(got, new(big.Int).SetUint64(lo))
		return got.Cmp(want) == 0
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
}
