package cpu

import (
	"bytes"
	"testing"

	"twolevel/internal/asm"
)

// TestResetMatchesFreshCPU runs a program that dirties data, the stack
// and (through StoreWord) the run counter, then resets it and compares
// every byte of memory, every register and the pc with a CPU that never
// ran. Odd memory sizes leave a partial last page, which must be cleaned
// too.
func TestResetMatchesFreshCPU(t *testing.T) {
	prog := asm.MustAssemble(`
		la r1, counter
		lw r2, 0(r1)
		addi r2, r2, 1
		sw r2, 0(r1)
		sb r2, 5(r1)
		li r3, 0x2FFF
		sb r2, 0(r3)
		li r4, 0x1234
		sw r4, -4(sp)
		sb r4, 3(sp)
		addi sp, sp, -64
		sw r4, 0(sp)
		halt
	counter:
		.word 100
		.word 7
	`)
	for _, memSize := range []int{1 << 16, 4096*5 + 8} {
		c, err := New(prog, memSize)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(prog, memSize)
		if err != nil {
			t.Fatal(err)
		}
		for run := uint32(1); run <= 3; run++ {
			if _, err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if !c.Halted() {
				t.Fatal("program did not halt")
			}
			if bytes.Equal(c.mem, fresh.mem) {
				t.Fatal("program left memory untouched; the test proves nothing")
			}
			if err := c.StoreWord(RunCounterAddr, run); err != nil {
				t.Fatal(err)
			}
			if err := c.StoreWord(uint32(memSize-4), run); err != nil {
				t.Fatal(err)
			}
			c.Reset()
			if !bytes.Equal(c.mem, fresh.mem) {
				for i := range c.mem {
					if c.mem[i] != fresh.mem[i] {
						t.Fatalf("mem %d run %d: byte %#x = %#x after Reset, fresh %#x", memSize, run, i, c.mem[i], fresh.mem[i])
					}
				}
			}
			if c.regs != fresh.regs || c.pc != fresh.pc || c.halted || c.sinceEvent != 0 {
				t.Fatalf("mem %d run %d: registers/pc/halt differ from a fresh CPU", memSize, run)
			}
		}
	}
}
