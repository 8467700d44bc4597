module T = Fault.Torture

let run (b : Bundle.t) =
  T.run b.Bundle.params b.Bundle.target ~spec:b.Bundle.spec ~seed:b.Bundle.seed

type check_result =
  | Reproduced of T.outcome
  | Diverged of { outcome : T.outcome; expected : Bundle.digest; got : Bundle.digest }

let check (b : Bundle.t) =
  let o = run b in
  if Bundle.digest_matches b.Bundle.recorded o then Reproduced o
  else
    Diverged
      { outcome = o; expected = b.Bundle.recorded; got = Bundle.digest_of_outcome o }

(* The torture CLI's exit-code convention: 0 clean/survived, 1
   invariant-class failure (detection or violation), 2 liveness-class
   failure (deadlock/livelock/hang). *)
let exit_code_of_verdict = function
  | T.Clean | T.Survived_partition -> 0
  | T.Detected -> 1
  | T.Failed msg ->
    let has sub =
      let n = String.length sub and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    if has "invariant" || has "duplicate" || has "drop" then 1 else 2
