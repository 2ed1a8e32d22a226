#!/bin/sh
# Replay adapter for the campaign workload: copy the planned result of one
# instance to the result path.  Shell builtins only, so a run costs one sh.
# usage: sh replay.sh TABLE_DIR NETWORK SPEC RESULT
net=${2##*/}
net=${net%.onnx}
spec=${3##*/}
spec=${spec%.vnnlib}
{ IFS= read -r status; IFS= read -r witness; } < "$1/$net-$spec"
printf '%s\n%s\n' "$status" "$witness" > "$4"
