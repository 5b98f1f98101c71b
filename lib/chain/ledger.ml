type account = string
type t = (account, float) Hashtbl.t

exception Insufficient_funds of { account : account; have : float; need : float }

let epsilon = 1e-9

let create () : t = Hashtbl.create 16
let balance t account = Option.value ~default:0. (Hashtbl.find_opt t account)

let set t account v =
  if v < 0. then Hashtbl.replace t account 0. else Hashtbl.replace t account v

let mint t account amount =
  if amount < 0. then invalid_arg "Ledger.mint: negative amount";
  set t account (balance t account +. amount)

let transfer t ~from_ ~to_ ~amount =
  if amount < 0. then invalid_arg "Ledger.transfer: negative amount";
  let have = balance t from_ in
  if have +. epsilon < amount then
    raise (Insufficient_funds { account = from_; have; need = amount });
  set t from_ (have -. amount);
  set t to_ (balance t to_ +. amount)

(* Both walks visit accounts in sorted order, not hash order: [accounts]
   is a public listing, and float addition is not associative, so even
   [total_supply] would otherwise depend on the table's insertion
   history. *)
let accounts t =
  Hashtbl.to_seq_keys t |> List.of_seq |> List.sort String.compare

let total_supply t =
  List.fold_left (fun acc a -> acc +. balance t a) 0. (accounts t)
