type decision = Cont | Stop

type t = {
  name : string;
  alice_t1 : p_star:float -> decision;
  bob_t2 : p_t2:float -> decision;
  alice_t3 : p_t3:float -> decision;
  bob_t4 : decision;
}

type retry = {
  max_attempts : int;
  backoff : float;
  backoff_factor : float;
}

let no_retry = { max_attempts = 1; backoff = 0.; backoff_factor = 2. }
let default_retry = { max_attempts = 4; backoff = 0.5; backoff_factor = 2. }

let make_retry ?(backoff = 0.5) ?(backoff_factor = 2.) max_attempts =
  if max_attempts < 1 then invalid_arg "Agent.make_retry: max_attempts < 1";
  if backoff < 0. then invalid_arg "Agent.make_retry: negative backoff";
  if backoff_factor < 1. then
    invalid_arg "Agent.make_retry: backoff_factor < 1";
  { max_attempts; backoff; backoff_factor }

let rational (p : Params.t) ~p_star =
  let k3 = Cutoff.p_t3_low p ~p_star in
  let band = Cutoff.p_t2_band p ~p_star in
  let feasible = Cutoff.p_star_band p in
  {
    name = "rational";
    alice_t1 = (fun ~p_star -> if Intervals.contains feasible p_star then Cont else Stop);
    bob_t2 = (fun ~p_t2 -> if Intervals.contains band p_t2 then Cont else Stop);
    (* Eq. 19: cont strictly above the cutoff, stop at or below. *)
    alice_t3 = (fun ~p_t3 -> if p_t3 > k3 then Cont else Stop);
    bob_t4 = Cont;
  }

let rational_collateral (c : Collateral.t) ~p_star =
  let kc = Collateral.p_t3_low c ~p_star in
  let set = Collateral.cont_set_t2 c ~p_star in
  let feasible = Collateral.initiation_set c in
  {
    name = "rational+collateral";
    alice_t1 =
      (fun ~p_star -> if Intervals.contains feasible p_star then Cont else Stop);
    bob_t2 = (fun ~p_t2 -> if Intervals.contains set p_t2 then Cont else Stop);
    alice_t3 = (fun ~p_t3 -> if p_t3 > kc then Cont else Stop);
    bob_t4 = Cont;
  }

let honest =
  {
    name = "honest";
    alice_t1 = (fun ~p_star:_ -> Cont);
    bob_t2 = (fun ~p_t2:_ -> Cont);
    alice_t3 = (fun ~p_t3:_ -> Cont);
    bob_t4 = Cont;
  }

let myopic (p : Params.t) ~p_star:agreed =
  {
    name = "myopic";
    alice_t1 = (fun ~p_star -> if p.Params.p0 >= p_star then Cont else Stop);
    bob_t2 = (fun ~p_t2 -> if p_t2 <= agreed then Cont else Stop);
    alice_t3 = (fun ~p_t3 -> if p_t3 >= agreed then Cont else Stop);
    bob_t4 = Cont;
  }
