package xsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/xsim"
)

// opsSource defines one operation per RTL operator and builtin so the
// processing core can be checked operator-by-operator against Go
// arithmetic.
const opsSource = `
Machine opsbox;
Format 32;

Section Global_Definitions

Token GPR "R" [0..7];
Token OPC imm unsigned 5;
Token IMM8 imm signed 8;

Section Storage

InstructionMemory IMEM width 32 depth 64;
RegFile RF width 16 depth 8;
Register ACC width 24;
ControlRegister HLT width 1;
ProgramCounter PC width 6;
Alias AMID = ACC[19:4];

Section Instruction_Set

Field EX:
  op ldi (d: GPR) "," (i: IMM8)
    Encode { I[31:27] = 0b00000; I[26:24] = d; I[7:0] = i; }
    Action { RF[d] <- sext(i, 16); }
  op alu (k: OPC) "," (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:27] = 0b00001; I[26:24] = d; I[23:21] = a; I[20:18] = b; I[12:8] = k; }
    Action {
      if (k == 0) { RF[d] <- RF[a] + RF[b]; }
      if (k == 1) { RF[d] <- RF[a] - RF[b]; }
      if (k == 2) { RF[d] <- RF[a] * RF[b]; }
      if (k == 3) { RF[d] <- RF[a] / RF[b]; }
      if (k == 4) { RF[d] <- RF[a] % RF[b]; }
      if (k == 5) { RF[d] <- RF[a] & RF[b]; }
      if (k == 6) { RF[d] <- RF[a] | RF[b]; }
      if (k == 7) { RF[d] <- RF[a] ^ RF[b]; }
      if (k == 8) { RF[d] <- RF[a] << (RF[b] & 15); }
      if (k == 9) { RF[d] <- RF[a] >> (RF[b] & 15); }
      if (k == 10) { RF[d] <- asr(RF[a], RF[b] & 15); }
      if (k == 11) { RF[d] <- zext(RF[a] == RF[b], 16); }
      if (k == 12) { RF[d] <- zext(RF[a] != RF[b], 16); }
      if (k == 13) { RF[d] <- zext(RF[a] < RF[b], 16); }
      if (k == 14) { RF[d] <- zext(RF[a] <= RF[b], 16); }
      if (k == 15) { RF[d] <- zext(RF[a] > RF[b], 16); }
      if (k == 16) { RF[d] <- zext(RF[a] >= RF[b], 16); }
      if (k == 17) { RF[d] <- zext(slt(RF[a], RF[b]), 16); }
      if (k == 18) { RF[d] <- zext(sle(RF[a], RF[b]), 16); }
      if (k == 19) { RF[d] <- zext(sgt(RF[a], RF[b]), 16); }
      if (k == 20) { RF[d] <- zext(sge(RF[a], RF[b]), 16); }
      if (k == 21) { RF[d] <- zext(carry(RF[a], RF[b]), 16); }
      if (k == 22) { RF[d] <- zext(borrow(RF[a], RF[b]), 16); }
      if (k == 23) { RF[d] <- zext(addov(RF[a], RF[b]), 16); }
      if (k == 24) { RF[d] <- zext(subov(RF[a], RF[b]), 16); }
      if (k == 25) { RF[d] <- -RF[a]; }
      if (k == 26) { RF[d] <- ~RF[a]; }
      if (k == 27) { RF[d] <- zext(!RF[a], 16); }
      if (k == 28) { RF[d] <- zext(RF[a] && RF[b], 16); }
      if (k == 29) { RF[d] <- zext(RF[a] || RF[b], 16); }
      if (k == 30) { RF[d] <- concat(trunc(RF[a], 8), trunc(RF[b], 8)); }
      if (k == 31) { RF[d] <- trunc(asr(sext(RF[a], 24), 4), 16); }
    }
  op sta (a: GPR)
    Encode { I[31:27] = 0b00010; I[23:21] = a; }
    Action { AMID <- RF[a]; }
  op lda (d: GPR)
    Encode { I[31:27] = 0b00011; I[26:24] = d; }
    Action { RF[d] <- AMID; }
  op halt
    Encode { I[31:27] = 0b11110; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[31:27] = 0b11111; }
`

// goRef computes the expected 16-bit result of alu opcode k on a, b.
func goRef(k int, a, b uint16) uint16 {
	sa, sb := int16(a), int16(b)
	bl := func(c bool) uint16 {
		if c {
			return 1
		}
		return 0
	}
	switch k {
	case 0:
		return a + b
	case 1:
		return a - b
	case 2:
		return a * b
	case 3:
		if b == 0 {
			return 0xffff
		}
		return a / b
	case 4:
		if b == 0 {
			return a
		}
		return a % b
	case 5:
		return a & b
	case 6:
		return a | b
	case 7:
		return a ^ b
	case 8:
		return a << (b & 15)
	case 9:
		return a >> (b & 15)
	case 10:
		return uint16(sa >> (b & 15))
	case 11:
		return bl(a == b)
	case 12:
		return bl(a != b)
	case 13:
		return bl(a < b)
	case 14:
		return bl(a <= b)
	case 15:
		return bl(a > b)
	case 16:
		return bl(a >= b)
	case 17:
		return bl(sa < sb)
	case 18:
		return bl(sa <= sb)
	case 19:
		return bl(sa > sb)
	case 20:
		return bl(sa >= sb)
	case 21:
		return bl(uint32(a)+uint32(b) > 0xffff)
	case 22:
		return bl(a < b)
	case 23:
		s := a + b
		return bl((a>>15) == (b>>15) && (s>>15) != (a>>15))
	case 24:
		d := a - b
		return bl((a>>15) != (b>>15) && (d>>15) != (a>>15))
	case 25:
		return -a
	case 26:
		return ^a
	case 27:
		return bl(a == 0)
	case 28:
		return bl(a != 0 && b != 0)
	case 29:
		return bl(a != 0 || b != 0)
	case 30:
		return a<<8 | b&0xff
	case 31:
		return uint16(int32(sa) << 8 >> 8 >> 4) // sext to 24, asr 4, trunc
	}
	panic("bad opcode")
}

// TestOperatorMatrix runs every ALU opcode over random operands on both
// simulator cores and checks each result against Go arithmetic.
func TestOperatorMatrix(t *testing.T) {
	d, err := isdl.Parse(opsSource)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	type tc struct {
		k    int
		a, b uint16
	}
	var cases []tc
	for k := 0; k <= 31; k++ {
		for n := 0; n < 6; n++ {
			a := uint16(rnd.Intn(1 << 16))
			b := uint16(rnd.Intn(1 << 16))
			switch n {
			case 0:
				b = 0 // zero operand edge (division, logical ops)
			case 1:
				a, b = 0x8000, 0x8000 // sign-boundary edge
			case 2:
				a, b = 0xffff, 1 // wraparound edge
			}
			cases = append(cases, tc{k, a, b})
		}
	}

	// One case per program.
	for _, c := range cases {
		// Operands are built with the concat opcode (30):
		// R = (hi & 0xff) << 8 | (lo & 0xff).
		src := fmt.Sprintf(`
    ldi R1, %d
    ldi R4, %d
    alu 30, R1, R1, R4
    ldi R2, %d
    ldi R4, %d
    alu 30, R2, R2, R4
    alu %d, R5, R1, R2
    halt
`,
			int8(c.a>>8), int8(c.a&0xff),
			int8(c.b>>8), int8(c.b&0xff),
			c.k)
		p, err := asm.Assemble(d, src)
		if err != nil {
			t.Fatal(err)
		}
		sim := xsim.New(d)
		if err := sim.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		// Verify operand construction first.
		if got := uint16(sim.State().Get("RF", 1).Uint64()); got != c.a {
			t.Fatalf("operand a = %#x, want %#x", got, c.a)
		}
		if got := uint16(sim.State().Get("RF", 2).Uint64()); got != c.b {
			t.Fatalf("operand b = %#x, want %#x", got, c.b)
		}
		want := goRef(c.k, c.a, c.b)
		got := uint16(sim.State().Get("RF", 5).Uint64())
		if got != want {
			t.Fatalf("opcode %d on %#x,%#x = %#x, want %#x", c.k, c.a, c.b, got, want)
		}
	}
}

// TestAliasMidSlice reads and writes an alias covering a middle bit range of
// a wider register.
func TestAliasMidSlice(t *testing.T) {
	d, err := isdl.Parse(opsSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, `
    ldi R1, -1
    sta R1          ; ACC[19:4] <- 0xffff
    lda R2          ; R2 <- ACC[19:4]
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := sim.State().Get("ACC", 0).Uint64(); got != 0xffff0 {
		t.Fatalf("ACC = %#x, want 0xffff0", got)
	}
	if got := sim.State().Get("RF", 2).Uint64(); got != 0xffff {
		t.Fatalf("R2 = %#x", got)
	}
}

// TestSetHaltStorageAndErr covers the remaining simulator control surface.
func TestSetHaltStorageAndErr(t *testing.T) {
	d := machines.Toy()
	sim := xsim.New(d)
	if err := sim.SetHaltStorage("ACC"); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetHaltStorage("NOPE"); err == nil {
		t.Fatal("unknown storage should fail")
	}
	p, err := asm.Assemble(d, "mv R1, #1\nst @R2, R1\njmp 0") // never halts by HLT
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	// ACC is never written, so the program runs to the limit.
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if sim.Err() != nil {
		t.Fatalf("unexpected error: %v", sim.Err())
	}
}
