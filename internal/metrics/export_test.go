package metrics

import (
	"bytes"
	"testing"

	"split/internal/model"
	"split/internal/policy"
)

// TestWriteRecordsCSV pins the records CSV of served records byte for
// byte: preemptions, a split and a second device each show in their column.
func TestWriteRecordsCSV(t *testing.T) {
	in := sample()
	in[2].Preemptions = 3
	in[3].Device = 1
	in[4].Split = true
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	want := `id,model,class,arrive_ms,start_ms,done_ms,ext_ms,e2e_ms,wait_ms,response_ratio,preemptions,split,device,outcome
0,yolo,Short,0.0000,0.0000,10.0000,10.0000,10.0000,0.0000,1.0000,0,false,0,served
1,yolo,Short,0.0000,0.0000,30.0000,10.0000,30.0000,20.0000,3.0000,0,false,0,served
2,yolo,Short,0.0000,0.0000,60.0000,10.0000,60.0000,50.0000,6.0000,3,false,0,served
3,vgg,Long,0.0000,0.0000,70.0000,70.0000,70.0000,0.0000,1.0000,0,false,1,served
4,vgg,Long,0.0000,0.0000,350.0000,70.0000,350.0000,280.0000,5.0000,0,true,0,served
`
	if got := buf.String(); got != want {
		t.Errorf("records CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteRecordsCSVOutcomes pins the outcome column byte for byte: a
// served record and a shed of every simulator reason and of "drained", a
// reason only the live server (serve.DropDrained) gives. A shed's outcome
// column carries its reason.
func TestWriteRecordsCSVOutcomes(t *testing.T) {
	in := sample()[:1]
	for i, reason := range []string{policy.OutcomeDeadline, policy.OutcomeCanceled, policy.OutcomeAdmission, policy.OutcomeDeviceFault, "drained"} {
		r := rec(5+i, "yolo", model.Short, float64(i), 12.5+float64(i), 10)
		r.Outcome = reason
		if reason == policy.OutcomeAdmission {
			r.StartMs, r.DoneMs = -1, r.ArriveMs
		}
		in = append(in, r)
	}
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	want := `id,model,class,arrive_ms,start_ms,done_ms,ext_ms,e2e_ms,wait_ms,response_ratio,preemptions,split,device,outcome
0,yolo,Short,0.0000,0.0000,10.0000,10.0000,10.0000,0.0000,1.0000,0,false,0,served
5,yolo,Short,0.0000,0.0000,12.5000,10.0000,12.5000,2.5000,1.2500,0,false,0,deadline
6,yolo,Short,1.0000,1.0000,13.5000,10.0000,12.5000,2.5000,1.2500,0,false,0,canceled
7,yolo,Short,2.0000,-1.0000,2.0000,10.0000,0.0000,-10.0000,0.0000,0,false,0,admission
8,yolo,Short,3.0000,3.0000,15.5000,10.0000,12.5000,2.5000,1.2500,0,false,0,device_fault
9,yolo,Short,4.0000,4.0000,16.5000,10.0000,12.5000,2.5000,1.2500,0,false,0,drained
`
	if got := buf.String(); got != want {
		t.Errorf("records CSV:\n%s\nwant:\n%s", got, want)
	}
}
