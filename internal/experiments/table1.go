package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cloudsim/clock"
	"repro/internal/core"
	"repro/internal/pricing"
)

// Table1 is the regenerated §5 strawman: "Monthly cost of running an
// email service on AWS (most costs do not depend on request volume)."
type Table1 struct {
	Transfer     pricing.Money
	Storage      pricing.Money
	Compute      pricing.Money
	Availability pricing.Money // auto-scale line: free on EC2, but no failover
	Total        pricing.Money
	// ReplicatedTotal doubles the deployment to a second region, the
	// paper's "Replicating the instance to another geographic region
	// doubles this cost" — the HA configuration the abstract's 50×
	// comparison uses.
	ReplicatedTotal pricing.Money
}

// RunTable1 provisions the strawman on a fresh simulated cloud, runs
// it for a billing month, and prices the meter.
func RunTable1() (*Table1, error) {
	cloud, err := core.NewCloud(core.CloudOptions{Name: "table1"})
	if err != nil {
		return nil, err
	}
	sm := Table1Strawman()

	inst, err := cloud.EC2.Launch(sm.InstanceType, cloud.Region, "email-vm", clock.Epoch)
	if err != nil {
		return nil, err
	}
	endOfMonth := clock.Epoch.Add(pricing.Month)
	if err := cloud.EC2.Accrue(inst.ID, endOfMonth); err != nil {
		return nil, err
	}
	cloud.Meter.Add(pricing.Usage{Kind: pricing.S3StorageGBMo, Quantity: sm.StorageGB, App: "email-vm"})
	cloud.Meter.Add(pricing.Usage{Kind: pricing.TransferOutGB, Quantity: sm.TransferGB, App: "email-vm"})

	bill := cloud.Bill()
	t := &Table1{
		Transfer: bill.Line(pricing.TransferOutGB).Cost,
		Storage:  bill.Line(pricing.S3StorageGBMo).Cost,
		Compute:  bill.TotalOf(pricing.EC2Seconds),
	}
	t.Total = t.Transfer + t.Storage + t.Compute + t.Availability
	t.ReplicatedTotal = t.Total + t.Compute + t.Storage // second region re-pays compute+storage
	return t, nil
}

// Render prints the table in the paper's layout.
func (t *Table1) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Monthly cost of running an email service on AWS\n")
	fmt.Fprintf(&sb, "  %-28s %10s\n", "Transfer:", t.Transfer)
	fmt.Fprintf(&sb, "  %-28s %10s\n", "Storage:", t.Storage)
	fmt.Fprintf(&sb, "  %-28s %10s\n", "Compute:", t.Compute)
	fmt.Fprintf(&sb, "  %-28s %10s\n", "Availability (auto-scale):", "Free")
	fmt.Fprintf(&sb, "  %-28s %10s\n", "TOTAL:", t.Total)
	fmt.Fprintf(&sb, "  %-28s %10s\n", "(2-region HA total):", t.ReplicatedTotal)
	return sb.String()
}
