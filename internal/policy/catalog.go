package policy

import (
	"fmt"

	"kloc/internal/fault"
	"kloc/internal/kernel"
)

// ByName constructs a policy from its Table-5 name.
func ByName(name string) (kernel.Policy, error) {
	switch name {
	// Two-tier platform (Table 5, top half).
	case "all-fast":
		return AllFast(), nil
	case "all-slow":
		return AllSlow(), nil
	case "naive":
		return Naive(), nil
	case "nimble":
		return NewNimble(), nil
	case "nimble++":
		return NewNimblePP(), nil
	case "klocs":
		return NewKLOCs(DefaultKLOCConfig()), nil
	case "klocs-nomigration":
		cfg := DefaultKLOCConfig()
		cfg.Migration = false
		return NewKLOCs(cfg), nil
	// Optane Memory-Mode platform (Table 5, bottom half).
	case "all-remote":
		return NewAllRemote(), nil
	case "all-local":
		return NewAllLocal(), nil
	case "autonuma":
		return NewAutoNUMA(), nil
	case "nimble-numa":
		return NewNimbleNUMA(), nil
	case "autonuma+klocs":
		return NewAutoNUMAKlocs(), nil
	default:
		return nil, fmt.Errorf("policy: unknown strategy %q: %w", name, fault.EINVAL)
	}
}

// TwoTierNames lists the two-tier strategies in Fig 4's bar order.
func TwoTierNames() []string {
	return []string{"naive", "nimble", "nimble++", "klocs-nomigration", "klocs", "all-fast"}
}

// OptaneNames lists the Memory-Mode strategies in Fig 5a's order.
func OptaneNames() []string {
	return []string{"autonuma", "nimble-numa", "autonuma+klocs", "all-local"}
}
