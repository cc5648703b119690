package core

import (
	"fmt"
	"strings"

	"repro/internal/cloudsim/lambda"
)

// Upgrade replaces a deployment's function code with a new version of
// the app while preserving its data, key, queues and identity — the
// app-store update path (§8.1: "Users can then update or delete
// applications ... at any time"). The function's warm containers are
// torn down, so the next invocation cold-starts into the new code.
func Upgrade(d *Deployment, newApp App) error {
	if d.app == nil {
		return ErrNotInstalled
	}
	if newApp.Name() != d.AppName {
		return fmt.Errorf("core: cannot upgrade %q to different app %q", d.AppName, newApp.Name())
	}
	cloud := d.Cloud
	old, ok := cloud.Lambda.Function(d.FnName)
	if !ok {
		return ErrNotInstalled
	}
	spec := newApp.Spec()

	if err := cloud.Lambda.RemoveFunction(d.FnName); err != nil {
		return err
	}
	err := cloud.Lambda.RegisterFunction(lambda.Function{
		Name:          d.FnName,
		Handler:       newApp.Handler(),
		MemoryMB:      spec.MemoryMB,
		Timeout:       spec.Timeout,
		Role:          d.Role,
		App:           d.AppName,
		Regions:       old.Regions,
		Code:          codeOf(newApp.Name(), spec),
		CacheDataKeys: spec.CacheDataKeys,
		Config:        old.Config, // bucket, key and queues are preserved
	})
	if err != nil {
		return fmt.Errorf("core: re-registering upgraded function: %w", err)
	}

	// Re-bind the endpoint and inbound addresses (RemoveFunction
	// cleared the triggers).
	if d.Endpoint != "" {
		cloud.Gateway.RemoveEndpoint(d.Endpoint)
		if err := cloud.Gateway.RegisterEndpoint(d.Endpoint, d.FnName, spec.Limit); err != nil {
			return err
		}
	}
	for _, addr := range spec.InboundAddrs {
		addr = strings.ReplaceAll(addr, "%USER%", d.User)
		if err := cloud.SES.RegisterInbound(addr, d.FnName); err != nil {
			return err
		}
	}
	d.app = newApp
	return nil
}
