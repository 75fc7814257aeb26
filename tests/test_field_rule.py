"""Every from_dict reads its document through json_field or json_strings."""

import ast
from pathlib import Path

import ibetls

PACKAGE = Path(ibetls.__file__).parent
COERCIONS = {"int", "float", "bool", "str"}


def field_rule_breaks(source: str) -> list[str]:
    """Where a from_dict in source subscripts its document, or coerces a value
    with a one-argument int, float, bool or str. int(text, 16) parses a string
    that json_field has already checked, so it is allowed."""
    breaks = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, ast.FunctionDef) or function.name != "from_dict":
            continue
        document = function.args.args[-1].arg
        for node in ast.walk(function):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == document):
                breaks.append(f"{document}[...] (line {node.lineno})")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in COERCIONS and len(node.args) == 1
                  and not node.keywords):
                breaks.append(f"{node.func.id}(...) (line {node.lineno})")
    return breaks


def test_from_dict_reads_fields_through_json_field():
    breaks = {str(path.relative_to(PACKAGE.parent)): field_rule_breaks(path.read_text("utf-8"))
              for path in PACKAGE.rglob("*.py")}
    assert {path: found for path, found in breaks.items() if found} == {}


def test_a_subscript_or_coercion_in_from_dict_is_found():
    source = ("class Share:\n"
              "    @classmethod\n"
              "    def from_dict(cls, data):\n"
              "        return cls(data['domain'], int(data['index']),\n"
              "                   int(json_field(data, 'value', str), 16))\n")
    assert field_rule_breaks(source) == ["data[...] (line 4)", "int(...) (line 4)",
                                         "data[...] (line 4)"]
    assert field_rule_breaks("def to_dict(self, data):\n    return int(data['x'])\n") == []
