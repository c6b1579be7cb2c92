package geo

import (
	"fmt"
	"slices"
)

// RoadClass categorizes an edge of the road network. Classes determine the
// travel speed used to convert edge length (meters) into travel time
// (seconds), following the paper's setup of assigning each road type 80 %
// of its maximum legal speed.
type RoadClass uint8

const (
	// Motorway is a limited-access highway.
	Motorway RoadClass = iota
	// Arterial is a primary urban through-road.
	Arterial
	// Collector distributes traffic between arterials and local streets.
	Collector
	// Residential is a local street.
	Residential

	// NumRoadClasses is the number of distinct road classes.
	NumRoadClasses = 4
)

// String returns a human-readable class name.
func (c RoadClass) String() string {
	switch c {
	case Motorway:
		return "motorway"
	case Arterial:
		return "arterial"
	case Collector:
		return "collector"
	case Residential:
		return "residential"
	default:
		return "unknown"
	}
}

// ParseRoadClass is the inverse of RoadClass.String. It is how the
// traffic-profile parser and the /v1/traffic endpoint resolve the class
// selector of a slowdown rule.
func ParseRoadClass(s string) (RoadClass, error) {
	for c := RoadClass(0); c < NumRoadClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("geo: unknown road class %q", s)
}

// classSpeeds holds the travel speed in m/s for each road class: 80 % of
// typical legal limits (motorway 100 km/h, arterial 60, collector 50,
// residential 30), mirroring the paper's "80 % of the maximum legal speed
// limit" rule. The resulting motorway speed (~22.2 m/s) matches the
// paper's quoted "23 m/s in motorways"; residential (~6.7 m/s) matches its
// "6 m/s in residential streets".
var classSpeeds = [NumRoadClasses]float64{
	Motorway:    100.0 / 3.6 * 0.8,
	Arterial:    60.0 / 3.6 * 0.8,
	Collector:   50.0 / 3.6 * 0.8,
	Residential: 30.0 / 3.6 * 0.8,
}

// Speed returns the travel speed of class c in meters per second.
func (c RoadClass) Speed() float64 {
	if int(c) >= NumRoadClasses {
		return classSpeeds[Residential]
	}
	return classSpeeds[c]
}

// maxSpeed is the largest entry of classSpeeds, computed once: nothing
// mutates the table, and EuclidTime reads it once per pair.
var maxSpeed = slices.Max(classSpeeds[:])

// MaxSpeed is the fastest speed any road class allows, in m/s. Euclidean
// travel-time lower bounds divide straight-line distance by MaxSpeed, which
// guarantees euc(u,v)/MaxSpeed ≤ dis(u,v) when dis is a shortest travel
// time, as required by the decision phase (paper §5.1).
func MaxSpeed() float64 { return maxSpeed }

// TravelTime converts a length in meters on a road of class c into seconds.
func (c RoadClass) TravelTime(meters float64) float64 {
	return meters / c.Speed()
}
