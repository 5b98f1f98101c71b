type experiment = {
  name : string;
  description : string;
  run : unit -> string;
  datasets : (unit -> (string * string) list) option;
}

let experiment ?datasets name description run =
  { name; description; run; datasets }

let all =
  [
    experiment Tab1.name Tab1.description Tab1.run;
    experiment Tab3.name Tab3.description Tab3.run;
    experiment Fig2.name Fig2.description Fig2.run;
    experiment Fig3.name Fig3.description Fig3.run;
    experiment Fig4.name Fig4.description Fig4.run;
    experiment ~datasets:Fig5.datasets Fig5.name Fig5.description Fig5.run;
    experiment Eq29.name Eq29.description Eq29.run;
    experiment ~datasets:Fig6.datasets Fig6.name Fig6.description Fig6.run;
    experiment Fig7.name Fig7.description Fig7.run;
    experiment Fig8.name Fig8.description Fig8.run;
    experiment ~datasets:Fig9.datasets Fig9.name Fig9.description Fig9.run;
    experiment Mc_check.name Mc_check.description Mc_check.run;
    experiment Lattice_check.name Lattice_check.description Lattice_check.run;
    experiment Baselines.name Baselines.description Baselines.run;
    experiment Jump_ablation.name Jump_ablation.description Jump_ablation.run;
    experiment Optionality_exp.name Optionality_exp.description
      Optionality_exp.run;
    experiment Selection_exp.name Selection_exp.description Selection_exp.run;
    experiment Frictions.name Frictions.description Frictions.run;
    experiment Backtest_exp.name Backtest_exp.description Backtest_exp.run;
    experiment Crash_exp.name Crash_exp.description Crash_exp.run;
    experiment ~datasets:Chaos.datasets Chaos.name Chaos.description Chaos.run;
    experiment Ac3_exp.name Ac3_exp.description Ac3_exp.run;
    experiment Waiting.name Waiting.description Waiting.run;
    experiment Stablecoin.name Stablecoin.description Stablecoin.run;
    experiment Negotiation.name Negotiation.description Negotiation.run;
    experiment Security.name Security.description Security.run;
    experiment Multihop_exp.name Multihop_exp.description Multihop_exp.run;
    experiment Graph_sweep.name Graph_sweep.description Graph_sweep.run;
    experiment Uncertainty.name Uncertainty.description Uncertainty.run;
    experiment Attribution.name Attribution.description Attribution.run;
    experiment Scorecard.name Scorecard.description Scorecard.run;
    experiment Presets_exp.name Presets_exp.description Presets_exp.run;
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let m_exp_runs = Obs.Metrics.counter "experiments.runs"

(* One experiment per pool task; reports are assembled in registry
   order, so the concatenated output is identical to a sequential run
   regardless of the jobs count. *)
let run_all ?jobs () =
  let report e =
    Obs.Trace.with_span ("experiment." ^ e.name) @@ fun _ ->
    Obs.Metrics.incr m_exp_runs;
    Printf.sprintf "######## %s — %s ########\n\n%s" e.name e.description
      (e.run ())
  in
  String.concat "\n" (Numerics.Pool.map_list ?jobs report all)
