package main

// recordedDigests are the round-0 simulated-statistics digests of the
// default seed at full size. A change that moves the simulation changes
// them, and the run then reports correct=false until they are re-recorded
// (with the reason) by a change that means to move the model.
var recordedDigests = map[string]string{
	"kv-ckpt":    "964763d9573d9da9cc244f0f",
	"spec-ideal": "d294124480bec36b14180630",
	"torture":    "5576535b5706c07e10a14564",
}
