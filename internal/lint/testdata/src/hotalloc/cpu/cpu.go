// Fixture for the hotalloc analyzer in the cpu package: the interpreter
// core (exec*) must not heap-allocate inside its loop, and a helper it
// calls there must not format unless the site is annotated.
package cpu

import "fmt"

type inst struct{ op, rd uint8 }

type event struct{ pc uint32 }

type cpu struct {
	code []inst
	regs [32]uint32
	log  []uint32
}

// note formats, but carries the justification at its site: calls from
// the core are clean.
func (c *cpu) note(pc uint32) error {
	return fmt.Errorf("note at %#x", pc) //lint:allow hotalloc fixture-sanctioned cold helper
}

// noteUnjustified formats without a justification: calling it from the
// core's loop is a finding citing this site.
func (c *cpu) noteUnjustified(pc uint32) error {
	return fmt.Errorf("note at %#x", pc)
}

// exec is hot by prefix.
func (c *cpu) exec(pc uint32, limit int) (ev event, err error) {
	var none event // declared before the loop: clean
	for n := 0; n < limit; n++ {
		in := c.code[pc>>2]
		switch in.op {
		case 0:
			c.regs[in.rd]++
		case 1:
			ev = event{pc: pc} // want "composite literal allocation in interpreter loop of exec"
		case 2:
			ev = none
		case 3:
			_ = c.note(pc)
		case 4:
			_ = c.noteUnjustified(pc) // want "call to noteUnjustified, which allocates"
		case 5:
			_ = fmt.Errorf("inline note at %#x", pc) // want "fmt\.Errorf call"
		case 6:
			c.log = append(c.log, pc) // want "append .*BenchmarkCapture guards this throughput"
		case 7:
			// A fault leaves the loop: its block is not part of the
			// natural loop, so formatting here is clean.
			return ev, fmt.Errorf("fault at %#x", pc)
		}
		pc += 4
	}
	return ev, nil
}

// Run is not hot (the prefix is exec): the same constructs are clean.
func (c *cpu) Run(pc uint32) {
	for i := 0; i < 4; i++ {
		c.log = append(c.log, pc)
	}
}
