package figures

import (
	"fmt"
	"strings"

	"femtoverse/internal/machine"
)

func init() {
	register("table1", genTable1)
	register("table2", genTable2)
	register("table3", genTable3)
}

// genTable1 reproduces Table I, the performance-attribute declaration.
func genTable1(bool) (Result, error) {
	rows := [][2]string{
		{"Category of achievement", "time to solution"},
		{"method", "explicit"},
		{"reporting", "whole application including I/O"},
		{"precision", "mixed-precision"},
		{"system scale", "full-scale system"},
		{"measurement method", "FLOP count"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %s\n", "Attribute", "Value")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %s\n", r[0], r[1])
	}
	return text{"table1", "Performance attributes", b.String()}, nil
}

// genTable2 reproduces Table II from the encoded machine models.
func genTable2(bool) (Result, error) {
	ms := machine.All()
	var b strings.Builder
	row := func(label string, f func(m machine.Machine) string) {
		fmt.Fprintf(&b, "%-18s", label)
		for _, m := range ms {
			fmt.Fprintf(&b, " %14s", f(m))
		}
		b.WriteString("\n")
	}
	row("Attribute", func(m machine.Machine) string { return m.Name })
	row("nodes", func(m machine.Machine) string { return fmt.Sprintf("%d", m.Nodes) })
	row("GPUs / node", func(m machine.Machine) string { return fmt.Sprintf("%d", m.GPUsPerNode) })
	row("CPU", func(m machine.Machine) string { return m.CPU })
	row("GPU", func(m machine.Machine) string { return "NVIDIA " + m.GPU.String() })
	row("FP32 TF / node", func(m machine.Machine) string { return fmt.Sprintf("%.0f", m.FP32PerNodeTF) })
	row("GPU bw GB/s", func(m machine.Machine) string { return fmt.Sprintf("%.0f", m.GPUBWPerNodeGB) })
	row("CPU-GPU GB/s", func(m machine.Machine) string { return fmt.Sprintf("%.0f", m.CPUGPUBWGB) })
	row("NIC GB/s", func(m machine.Machine) string { return fmt.Sprintf("%.0f", m.InterconnectGB) })
	row("GCC", func(m machine.Machine) string { return m.GCC })
	row("MPI", func(m machine.Machine) string { return m.MPI })
	row("CUDA", func(m machine.Machine) string { return m.CUDA })
	row("eff GB/s / GPU", func(m machine.Machine) string {
		return fmt.Sprintf("%.0f", m.EffectiveBWPerGPUGB())
	})
	return text{"table2", "Comparison of the systems used in this study", b.String()}, nil
}

// genTable3 reproduces Table III: the application software inventory,
// mapped to the packages of this repository that stand in for each.
func genTable3(bool) (Result, error) {
	rows := [][3]string{
		{"Lalibe", "physics measurement driver", "internal/core + internal/physics"},
		{"Chroma", "application framework", "internal/workflow + internal/prop"},
		{"QUDA", "GPU solver library", "internal/solver + internal/dirac + internal/prop"},
		{"QDP++", "data-parallel field layer", "internal/linalg + internal/lattice"},
		{"QMP", "communications layer", "internal/comms"},
		{"mpi_jm", "job manager", "internal/mpijm (baseline: internal/metaq)"},
		{"HDF5", "parallel I/O", "internal/hio"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-32s %s\n", "Name", "Role", "This repository")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-32s %s\n", r[0], r[1], r[2])
	}
	return text{"table3", "Application software used in this study", b.String()}, nil
}
