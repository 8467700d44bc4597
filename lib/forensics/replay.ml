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

let exit_code o = match T.verdict o with T.Detected -> 1 | _ -> T.exit_code [ o ]
