// Policycompare runs one buggy app and one legitimate app under every
// policy, reproducing the paper's core argument: blind throttling either
// under-reacts to misbehaviour or breaks legitimate heavy resource use,
// while the utilitarian lease does neither.
//
// The buggy app is BetterWeather searching for GPS inside a building (the
// Figure 1 condition); the legitimate app is a RunKeeper-style fitness
// tracker recording a run outdoors. Each app gets its own device so the
// power attribution stays clean.
package main

import (
	"fmt"
	"time"

	leaseos "repro"
	"repro/internal/apps"
	"repro/internal/env"
)

const runFor = 30 * time.Minute

// buggyRun measures BetterWeather's power draw under weak GPS signal.
func buggyRun(policy leaseos.Policy) float64 {
	s := leaseos.New(leaseos.Options{Policy: policy})
	s.World.SetGPS(env.GPSWeak)
	app := apps.NewBetterWeather(s, 100)
	app.Start()
	s.Run(runFor)
	return s.Meter.EnergyOfJ(100) / runFor.Seconds() * 1000
}

// trackerRun measures a fitness tracker's power and how many track points
// survive the policy.
func trackerRun(policy leaseos.Policy) (float64, int) {
	s := leaseos.New(leaseos.Options{Policy: policy})
	s.World.SetMotion(true, 2.5)
	app := apps.NewRunKeeper(s, 100)
	app.Start()
	s.Run(runFor)
	return s.Meter.EnergyOfJ(100) / runFor.Seconds() * 1000, app.TrackPoints
}

func main() {
	fmt.Printf("%-16s | %16s | %14s %13s\n",
		"policy", "BetterWeather mW", "RunKeeper mW", "track points")

	for _, policy := range []leaseos.Policy{
		leaseos.Vanilla, leaseos.LeaseOS, leaseos.DozeAggressive,
		leaseos.DefDroid, leaseos.Throttle,
	} {
		buggyMW := buggyRun(policy)
		goodMW, points := trackerRun(policy)
		fmt.Printf("%-16s | %16.1f | %14.1f %13d\n", policy, buggyMW, goodMW, points)
	}

	fmt.Println("\nreading the table: LeaseOS cuts the buggy widget's draw the most")
	fmt.Println("while the tracker keeps every point (~890). Doze saves energy by")
	fmt.Println("freezing both apps; the single-term throttler is worst of both")
	fmt.Println("worlds — the widget's 40 s ask cycle slips under its 60 s term")
	fmt.Println("(no savings at all) while the steady legitimate tracker gets cut.")
}
