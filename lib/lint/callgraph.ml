(* Whole-program call graph over compiler .cmt typedtrees.

   The syntactic pass (Rules) sees one Parsetree at a time; this module
   reads the .cmt files dune already produces (bin_annot is forced on
   repo-wide) and builds a cross-module reference graph keyed on
   resolved [Path.t]s, which is what lets the deep analyses follow a
   nondeterminism source into a cache key three calls away in another
   module.

   Node = one module-level value binding ("Serve.Reactor.process").
   Edge = the body of one binding mentions another binding — by
   resolved path for cross-module references (the typechecker has
   already chased opens and dune's wrapping aliases for us), by ident
   stamp for references to siblings in the same compilation unit, and
   through the unit's own module names: a path headed by a local alias
   ([module M = Obs.Metrics], [let module J = Obs.Json in ...]) or by a
   nested structure ([module Bilinear = struct ... end]) is rewritten
   onto the module it denotes before it is resolved.  "Mentions"
   deliberately over-approximates "calls": passing a function to
   List.iter reaches it just as surely as applying it, and for
   taint/blocking reachability an over-approximation errs on the loud
   side.

   Known false-negative classes (stated honestly, see DESIGN.md §15):
   functor bodies and first-class modules are not expanded; references
   made through records of closures lose the target name; code behind
   external/C stubs is invisible.  Within those limits the graph is
   deterministic: cmt files are loaded in sorted order and every node
   list is sorted by id, so repeated runs produce byte-identical
   analyses. *)

type op = { op_path : string list; op_line : int }

type node = {
  id : string; (* "Serve.Reactor.process" *)
  unit_id : string; (* "Serve.Reactor" *)
  name : string; (* "process" *)
  file : string; (* normalized source path *)
  line : int; (* definition line *)
  refs : (string * int) list; (* resolved mention -> line, in body order *)
  ops : op list; (* every qualified path mentioned, Stdlib-stripped *)
  alloc : string option; (* toplevel mutable allocator, e.g. "Hashtbl.create" *)
  guarded : bool; (* body mentions Mutex.* or Atomic.* *)
}

type t = {
  nodes : node list; (* sorted by id *)
  index : (string, node) Hashtbl.t;
  cmt_files : int;
  edges : int; (* references that resolve to an in-graph node *)
  load_notes : (string * string) list; (* cmt path -> why it was skipped *)
}

(* --- naming -------------------------------------------------------------- *)

(* "Serve__Reactor" -> ["Serve"; "Reactor"]; "Numerics__" -> ["Numerics"];
   "Obs__Json_parse" -> ["Obs"; "Json_parse"] (single underscores are
   part of the name, the wrapping separator is the double). *)
let split_wrapped name =
  let n = String.length name in
  let parts = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if name.[!i] = '_' && name.[!i + 1] = '_' then begin
      if !i > !start then parts := String.sub name !start (!i - !start) :: !parts;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  if n > !start then parts := String.sub name !start (n - !start) :: !parts;
  List.rev !parts

let display_modname modname =
  match split_wrapped modname with
  | "Dune" :: "exe" :: (_ :: _ as rest) -> String.concat "." rest
  | parts -> String.concat "." parts

(* Ident stamps restart with every compilation unit, so every table
   keyed by one is keyed "<unit_id>#<unique name>". *)
let stamp_key ~unit_id id = unit_id ^ "#" ^ Ident.unique_name id

(* [modules] maps the stamp key of a unit's local module names to the
   components of the module each denotes: an alias's target, or a
   nested structure's own path.  A head found there is replaced, so
   [M.incr] under [module M = Obs.Metrics] reads ["Obs"; "Metrics";
   "incr"]. *)
let rec path_components ~modules ~unit_id p acc =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt modules (stamp_key ~unit_id id) with
    | Some target -> target @ acc
    | None -> Ident.name id :: acc)
  | Path.Pdot (p, s) -> path_components ~modules ~unit_id p (s :: acc)
  | Path.Papply (_, p) -> path_components ~modules ~unit_id p acc
  | Path.Pextra_ty (p, _) -> path_components ~modules ~unit_id p acc

(* The rule-matching spelling: Stdlib dropped so `Stdlib.Random.int`
   and `Random.int` name the same primitive, wrapping expanded so an
   intra-library spelling matches the cross-library one. *)
let op_path_of comps =
  match comps with
  | "Stdlib" :: rest -> rest
  | head :: rest -> split_wrapped head @ rest
  | [] -> []

let ref_id_of comps =
  match comps with
  | head :: rest -> String.concat "." (display_modname head :: rest)
  | [] -> ""

(* --- typedtree helpers --------------------------------------------------- *)

let rec pat_idents : Typedtree.pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (p, id, _) -> id :: pat_idents p
  | Tpat_tuple ps -> List.concat_map pat_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_idents ps
  | Tpat_variant (_, Some p, _) -> pat_idents p
  | Tpat_record (fields, _) ->
    List.concat_map (fun (_, _, p) -> pat_idents p) fields
  | Tpat_array ps -> List.concat_map pat_idents ps
  | Tpat_lazy p -> pat_idents p
  | Tpat_or (a, _, _) -> pat_idents a
  | _ -> []

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

let alloc_idents =
  [
    ([ "ref" ], "ref");
    ([ "Hashtbl"; "create" ], "Hashtbl.create");
    ([ "Queue"; "create" ], "Queue.create");
    ([ "Buffer"; "create" ], "Buffer.create");
    ([ "Array"; "make" ], "Array.make");
    ([ "Bytes"; "create" ], "Bytes.create");
  ]

(* --- per-unit processing ------------------------------------------------- *)

type binding = {
  b_modpath : string;
  b_name : string;
  b_vb : Typedtree.value_binding;
}

let binding_name vb ~line =
  match pat_idents vb.Typedtree.vb_pat with
  | id :: _ -> Ident.name id
  | [] -> Printf.sprintf "_init_L%d" line

let rec unwrap_module (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> unwrap_module me
  | desc -> desc

(* Record what a local module name denotes, if it is an alias: its
   target, itself expanded, so an alias of an alias resolves too. *)
let record_alias ~modules ~unit_id id (me : Typedtree.module_expr) =
  match unwrap_module me with
  | Tmod_ident (p, _) ->
    Hashtbl.replace modules (stamp_key ~unit_id id)
      (path_components ~modules ~unit_id p [])
  | _ -> ()

(* Walk a unit's structure collecting module-level bindings, recursing
   into plain nested modules (functors and first-class modules are the
   documented blind spot) and recording, in [modules], what each local
   module name denotes.  [comps] is the enclosing module's path. *)
let rec collect_structure ~modules ~unit_id ~comps ~(acc : binding list ref)
    (str : Typedtree.structure) =
  let modpath = ref_id_of comps in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let line = loc_line vb.Typedtree.vb_loc in
            acc :=
              { b_modpath = modpath; b_name = binding_name vb ~line; b_vb = vb }
              :: !acc)
          vbs
      | Tstr_module mb -> collect_module ~modules ~unit_id ~comps ~acc mb
      | Tstr_recmodule mbs ->
        List.iter (collect_module ~modules ~unit_id ~comps ~acc) mbs
      | _ -> ())
    str.str_items

and collect_module ~modules ~unit_id ~comps ~acc (mb : Typedtree.module_binding)
    =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  match (unwrap_module mb.mb_expr, mb.mb_id) with
  | Tmod_structure str, id ->
    let comps = comps @ [ name ] in
    Option.iter
      (fun id -> Hashtbl.replace modules (stamp_key ~unit_id id) comps)
      id;
    collect_structure ~modules ~unit_id ~comps ~acc str
  | _, Some id -> record_alias ~modules ~unit_id id mb.mb_expr
  | _, None -> ()

(* Body analysis: every Texp_ident in [vb], classified.  [locals] maps
   the stamp key of module-level bindings to node ids; [modules] gains
   the body's own [let module X = <path> in] aliases before their
   scope is walked. *)
let analyse_body ~locals ~modules ~unit_id (vb : Typedtree.value_binding) =
  let refs = ref [] in
  let ops = ref [] in
  let guarded = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Texp_ident (p, _, _) -> (
            let line = loc_line e.exp_loc in
            match p with
            | Path.Pident id -> (
              match Hashtbl.find_opt locals (stamp_key ~unit_id id) with
              | Some target -> refs := (target, line) :: !refs
              | None -> ())
            | _ ->
              let comps = path_components ~modules ~unit_id p [] in
              let op_path = op_path_of comps in
              ops := { op_path; op_line = line } :: !ops;
              (match op_path with
              | ("Mutex" | "Atomic") :: _ -> guarded := true
              | _ -> ());
              refs := (ref_id_of comps, line) :: !refs)
          | Texp_letmodule (Some id, _, _, me, _) ->
            record_alias ~modules ~unit_id id me
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it vb.Typedtree.vb_expr;
  (List.rev !refs, List.rev !ops, !guarded)

(* Toplevel mutable allocation: an alloc_idents application evaluated
   at module-init time (never inside a function body — per-call state
   is not shared). *)
let alloc_of ~modules ~unit_id (vb : Typedtree.value_binding) =
  let found = ref None in
  let rec visit (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function _ -> ()
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      let op_path = op_path_of (path_components ~modules ~unit_id p []) in
      (match List.assoc_opt op_path alloc_idents with
      | Some name when !found = None -> found := Some name
      | _ -> ());
      List.iter (fun (_, a) -> Option.iter visit a) args
    | _ -> Tast_iterator.default_iterator.expr visit_it e
  and visit_it =
    { Tast_iterator.default_iterator with expr = (fun _ e -> visit e) }
  in
  visit vb.vb_expr;
  !found

(* --- cmt discovery ------------------------------------------------------- *)

(* As [Driver]'s source walk: an entry that vanished between
   [Sys.readdir] and the look at it (a build temporary) is absent. *)
let rec walk_cmts ~skip_dirs acc path =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true -> (
    match Sys.readdir path with
    | exception Sys_error _ -> acc
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if List.mem entry skip_dirs then acc
             else walk_cmts ~skip_dirs acc (Filename.concat path entry))
           acc)
  | false -> if Filename.check_suffix path ".cmt" then path :: acc else acc

(* --- the build ----------------------------------------------------------- *)

let build ?(config = Config.default) ~cmt_root () =
  let notes = ref [] in
  let cmt_paths =
    if Sys.file_exists cmt_root then
      List.sort compare (walk_cmts ~skip_dirs:config.skip_dirs [] cmt_root)
    else begin
      notes := [ (cmt_root, "cmt root does not exist") ];
      []
    end
  in
  let bindings_by_unit = ref [] in
  let units_seen = Hashtbl.create 64 in
  let modules = Hashtbl.create 256 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception (Sys_error msg | Failure msg) ->
        notes := (cmt_path, msg) :: !notes
      | exception Cmi_format.Error _ ->
        notes := (cmt_path, "unreadable cmi payload") :: !notes
      | exception Cmt_format.Error _ ->
        notes := (cmt_path, "not a valid cmt file") :: !notes
      | exception End_of_file ->
        (* Shorter than its magic number: cut off, or still being
           written by the build. *)
        notes := (cmt_path, "truncated cmt file") :: !notes
      | cmt -> (
        match (cmt.cmt_annots, cmt.cmt_sourcefile) with
        (* "Dune__exe" is the generated namespace wrapper for
           multi-module executable stanzas: alias-only, one per stanza,
           so it duplicates freely and carries no bindings — skip. *)
        | Cmt_format.Implementation _, _ when cmt.cmt_modname = "Dune__exe" ->
          ()
        | Cmt_format.Implementation str, Some source ->
          let unit_id = display_modname cmt.cmt_modname in
          if Hashtbl.mem units_seen unit_id then
            notes :=
              (cmt_path, "duplicate compilation unit " ^ unit_id) :: !notes
          else begin
            Hashtbl.add units_seen unit_id ();
            let file = Config.normalize source in
            let acc = ref [] in
            collect_structure ~modules ~unit_id ~comps:[ cmt.cmt_modname ] ~acc
              str;
            bindings_by_unit :=
              (unit_id, file, List.rev !acc) :: !bindings_by_unit
          end
        | _ -> ()))
    cmt_paths;
  let bindings_by_unit = List.rev !bindings_by_unit in
  (* Phase A: name every binding.  Shadowing: the later binding keeps
     the plain id (it is the one external references resolve to), the
     earlier one is disambiguated by its definition line. *)
  let locals = Hashtbl.create 1024 in
  let named = ref [] in
  List.iter
    (fun (unit_id, file, bindings) ->
      (* plain id -> (definition line, the binding's ident stamps) for
         the current holder of that id in this unit. *)
      let taken = Hashtbl.create 64 in
      List.iter
        (fun b ->
          let line = loc_line b.b_vb.Typedtree.vb_loc in
          let plain = b.b_modpath ^ "." ^ b.b_name in
          let stamps =
            List.map (stamp_key ~unit_id) (pat_idents b.b_vb.Typedtree.vb_pat)
          in
          (match Hashtbl.find_opt taken plain with
          | Some (prev_line, prev_stamps) ->
            (* The later binding keeps the plain id (external references
               resolve to it); the earlier holder is disambiguated by
               its definition line. *)
            let renamed = Printf.sprintf "%s@L%d" plain prev_line in
            List.iter
              (fun stamp ->
                if Hashtbl.find_opt locals stamp = Some plain then
                  Hashtbl.replace locals stamp renamed)
              prev_stamps;
            named :=
              List.map
                (fun (id, ln, u, f, bb) ->
                  if id = plain && ln = prev_line then (renamed, ln, u, f, bb)
                  else (id, ln, u, f, bb))
                !named
          | None -> ());
          Hashtbl.replace taken plain (line, stamps);
          List.iter (fun stamp -> Hashtbl.replace locals stamp plain) stamps;
          named := (plain, line, unit_id, file, b) :: !named)
        bindings)
    bindings_by_unit;
  let named = List.rev !named in
  (* Phase B: bodies. *)
  let nodes =
    List.map
      (fun (id, line, unit_id, file, b) ->
        let refs, ops, guarded =
          analyse_body ~locals ~modules ~unit_id b.b_vb
        in
        {
          id;
          unit_id;
          name = b.b_name;
          file;
          line;
          refs;
          ops;
          alloc = alloc_of ~modules ~unit_id b.b_vb;
          guarded;
        })
      named
  in
  let nodes = List.sort (fun a b -> compare a.id b.id) nodes in
  let index = Hashtbl.create (List.length nodes * 2) in
  List.iter (fun n -> Hashtbl.replace index n.id n) nodes;
  let edges =
    List.fold_left
      (fun acc n ->
        acc
        + List.length
            (List.filter (fun (r, _) -> Hashtbl.mem index r) n.refs))
      0 nodes
  in
  {
    nodes;
    index;
    cmt_files = List.length cmt_paths;
    edges;
    load_notes = List.sort compare !notes;
  }

let find t id = Hashtbl.find_opt t.index id

(* In-graph successors, deduped (first mention's line wins) and sorted
   by id — the deterministic adjacency every BFS in Reach relies on. *)
let succs t node =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun (r, line) ->
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.add seen r ();
        match find t r with
        | Some n when n.id <> node.id -> out := (n, line) :: !out
        | _ -> ()
      end)
    node.refs;
  List.sort (fun (a, _) (b, _) -> compare a.id b.id) !out
