package netsim

// RouteTables reports how many route tables t has built and how many it
// holds, for tests outside the package: each destination subnet's routes are
// built at most once, so the two agree.
func RouteTables(t *Topology) (builds, held int) {
	t.routeMu.Lock()
	builds = t.routeBuilds
	t.routeMu.Unlock()
	for i := range t.routes {
		if t.routes[i].Load() != nil {
			held++
		}
	}
	return builds, held
}
