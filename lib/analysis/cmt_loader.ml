type unit_info = {
  modname : string;  (* compilation unit name, e.g. "Lopc_markov__Ctmc" *)
  base : string;  (* user-facing module name, e.g. "Ctmc" *)
  source : string;  (* source path as recorded at compile time *)
  structure : Typedtree.structure;
}

(* "Lopc_markov__Ctmc" -> "Ctmc"; dune mangles wrapped-library and
   executable units as <prefix>__<Module>. *)
let base_of_modname m =
  let n = String.length m in
  let rec scan i =
    if i < 0 then None
    else if i + 1 < n && m.[i] = '_' && m.[i + 1] = '_' then Some (i + 2)
    else scan (i - 1)
  in
  match scan (n - 2) with Some j -> String.sub m j (n - j) | None -> m

(* "Lopc_markov__Ctmc" -> Some "Lopc_markov": the generated wrapper module
   whose fields alias the real units. References through the wrapper
   ("Lopc_markov.Ctmc.solve") are normalised by dropping it. *)
let wrapper_of_modname m =
  let n = String.length m in
  let rec scan i =
    if i < 0 then None
    else if i + 1 < n && m.[i] = '_' && m.[i + 1] = '_' then Some i
    else scan (i - 1)
  in
  match scan (n - 2) with Some j when j > 0 -> Some (String.sub m 0 j) | _ -> None

let of_implementation ~modname ~source structure =
  { modname; base = base_of_modname modname; source; structure }

let read_cmt path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Implementation structure; cmt_modname; cmt_sourcefile; _ } ->
    Some
      (of_implementation ~modname:cmt_modname
         ~source:(Option.value cmt_sourcefile ~default:path)
         structure)
  | _ -> None
  | exception _ -> None

(* Depth-first listing of every .cmt under [roots] (dot-directories such as
   dune's .objs included), sorted for stable unit ordering. *)
let cmt_files roots =
  let acc = ref [] in
  let rec visit path =
    match Sys.is_directory path with
    | true ->
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.iter (fun entry -> visit (Filename.concat path entry))
    | false -> if Filename.check_suffix path ".cmt" then acc := path :: !acc
    | exception Sys_error _ -> ()
  in
  List.iter visit (List.filter Sys.file_exists roots);
  List.rev !acc

exception Duplicate_unit of { modname : string; first : string; second : string }

(* dune's generated alias module of an executable directory: every such
   directory has one, all called Dune__exe, and it holds only module
   aliases. *)
let is_generated source = Filename.check_suffix source ".ml-gen"

(* Load every distinct compilation unit under [roots], in sorted scan
   order. A module name met again from the same source (a root listed
   twice) or from another generated alias module is skipped; from any
   other source it is two different units that the call graph would
   conflate, so loading fails. *)
let load roots =
  let seen = Hashtbl.create 64 in
  cmt_files roots
  |> List.filter_map (fun path ->
         match read_cmt path with
         | None -> None
         | Some u -> (
           match Hashtbl.find_opt seen u.modname with
           | None ->
             Hashtbl.add seen u.modname u.source;
             Some u
           | Some first
             when String.equal first u.source || (is_generated first && is_generated u.source)
             ->
             None
           | Some first ->
             raise (Duplicate_unit { modname = u.modname; first; second = u.source })))
